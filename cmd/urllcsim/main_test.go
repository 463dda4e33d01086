package main

import "testing"

func TestCheckTraffic(t *testing.T) {
	cases := []struct {
		ues  int
		dir  string
		want bool // accepted
	}{
		{1, "both", true},
		{4, "ul", true},
		{2, "dl", true},
		{0, "both", false},
		{-3, "ul", false},
		{1, "foo", false},
		{1, "", false},
		{1, "UL", false},
	}
	for _, c := range cases {
		if err := checkTraffic(c.ues, c.dir); (err == nil) != c.want {
			t.Errorf("checkTraffic(%d, %q) = %v, want accepted %v", c.ues, c.dir, err, c.want)
		}
	}
}
