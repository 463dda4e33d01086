package main

import "testing"

func TestCheckTraffic(t *testing.T) {
	cases := []struct {
		packets int
		ues     int
		dir     string
		want    bool // accepted
	}{
		{300, 1, "both", true},
		{300, 4, "ul", true},
		{300, 2, "dl", true},
		{1, 1, "both", true},
		{300, 0, "both", false},
		{300, -3, "ul", false},
		{300, 1, "foo", false},
		{300, 1, "", false},
		{300, 1, "UL", false},
		{0, 1, "both", false},
		{-5, 1, "both", false},
	}
	for _, c := range cases {
		if err := checkTraffic(c.packets, c.ues, c.dir); (err == nil) != c.want {
			t.Errorf("checkTraffic(%d, %d, %q) = %v, want accepted %v", c.packets, c.ues, c.dir, err, c.want)
		}
	}
}
