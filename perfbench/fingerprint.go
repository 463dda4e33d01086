package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// fingerprint identifies the machine, toolchain and code a result was
// measured on. Results are only comparable when the machine fields match.
type fingerprint struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Seed       uint64 `json:"seed"`
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	// StealShare is the share of all CPU time the hypervisor stole from
	// this machine over the whole run, and Discarded the measurements the
	// run dropped and took again because steal passed stealMax during them.
	// They are conditions of the run, not of the machine.
	StealShare float64 `json:"host_steal_share"`
	Discarded  int     `json:"discarded_for_steal"`
}

// machineKey is the part of the fingerprint that must match for two results
// to be compared.
func (f fingerprint) machineKey() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q go=%s", f.Nproc, f.GOMAXPROCS, f.CPUModel, f.GoVersion)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit reads the VCS revision the Go toolchain stamped into the binary;
// a build outside a git checkout has none.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes go.mod and every .go file under root, skipping hidden
// directories (build output, VCS metadata), so results from a checkout
// without git still name the code they measured.
func sourceDigest(root string) string {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		f, err := os.Open(p)
		if err != nil {
			return "unknown"
		}
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTicks reads the stolen and total CPU ticks of all CPUs from
// /proc/stat; zeros where it is unreadable.
func cpuTicks() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

func newFingerprint(w string, seed uint64, trace bool, root string) fingerprint {
	return fingerprint{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest(root),
		Seed:       seed,
		Workload:   w,
		Trace:      trace,
	}
}

// savedResult is the file a run leaves beside its build output: the
// fingerprint and the result line, for later comparison with -compare.
type savedResult struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Result      result      `json:"result"`
}

func loadResult(path string) (savedResult, error) {
	var s savedResult
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// compare prints base and head side by side. It refuses results from
// different machines or of different workloads.
func compare(w io.Writer, basePath, headPath string) error {
	base, err := loadResult(basePath)
	if err != nil {
		return err
	}
	head, err := loadResult(headPath)
	if err != nil {
		return err
	}
	if bk, hk := base.Fingerprint.machineKey(), head.Fingerprint.machineKey(); bk != hk {
		return fmt.Errorf("refusing to compare across machines:\n  base: %s\n  head: %s", bk, hk)
	}
	if bw, hw := base.Fingerprint.Workload, head.Fingerprint.Workload; bw != hw {
		return fmt.Errorf("refusing to compare workload %s with %s", bw, hw)
	}
	names := make([]string, 0, len(base.Result.Metrics))
	for n := range base.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-36s %14s %14s %9s\n", "metric", "base", "head", "head/base")
	for _, n := range names {
		b := base.Result.Metrics[n]
		h, ok := head.Result.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "%-36s %14.6g %14s %9s\n", n, b.Value, "-", "-")
			continue
		}
		ratio := "-"
		if b.Value != 0 {
			ratio = fmt.Sprintf("%.3f", h.Value/b.Value)
		}
		fmt.Fprintf(w, "%-36s %14.6g %14.6g %9s %s\n", n, b.Value, h.Value, ratio, b.Unit)
	}
	return nil
}
