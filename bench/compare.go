package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// stamp says which code was measured and on what host shape. Runs from
// different shapes are never compared.
type stamp struct {
	Commit     string `json:"commit"` // git rev-parse HEAD of the code measured; "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`  // uncommitted changes on top of Commit
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
}

func newStamp() stamp {
	st := stamp{Commit: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
		if out, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			st.Dirty = len(bytes.TrimSpace(out)) > 0
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		st.Kernel = string(b)
	}
	return st
}

// shape is the part of a stamp two sets must share to be comparable.
func (s stamp) shape() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d kernel=%s go=%s arch=%s", s.NProc, s.GOMAXPROCS, s.Kernel, s.GoVersion, s.GOARCH)
}

// loadRuns reads one run record, or every record in a directory.
func loadRuns(path string) ([]runRecord, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []runRecord
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec runRecord
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.Workload == "" { // a trace file, not a run record
			continue
		}
		runs = append(runs, rec)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no run records", path)
	}
	return runs, nil
}

// series groups the values of untraced, valid runs by workload and metric.
func series(runs []runRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if r.Trace || !r.Valid {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// spread is the distance between the quartiles of xs as a share of their
// median (0 below four values, where quartiles mean nothing).
func spread(xs []float64) float64 {
	if len(xs) < 4 || median(xs) == 0 {
		return 0
	}
	return (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

// compare prints one row per (workload, end-to-end metric): both medians, how
// much worse b is than a as a share of a, the bound, and a verdict. A delta
// inside the bound is only "ok" when the run-to-run spread of both sets is
// inside it too; otherwise the pairing is unresolved.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadRuns(pathA)
	if err != nil {
		return err
	}
	b, err := loadRuns(pathB)
	if err != nil {
		return err
	}
	shape := a[0].Stamp.shape()
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		if r.Stamp.shape() != shape {
			return fmt.Errorf("refusing to compare different host shapes:\n  %s\n  %s", shape, r.Stamp.shape())
		}
	}
	describe := func(runs []runRecord) string {
		st := runs[0].Stamp
		dirty := ""
		if st.Dirty {
			dirty = "+dirty"
		}
		return fmt.Sprintf("%.12s%s (%d runs)", st.Commit, dirty, len(runs))
	}
	fmt.Fprintf(w, "a: %s  %s\nb: %s  %s\nhost: %s\n", pathA, describe(a), pathB, describe(b), shape)
	fmt.Fprintf(w, "%-15s %-14s %14s %14s %9s %7s %9s  %s\n", "workload", "metric", "median a", "median b", "worse by", "bound", "spread", "verdict")
	sa, sb := series(a), series(b)
	failed := map[string]int64{}
	for _, r := range append(append([]runRecord(nil), a...), b...) {
		failed[r.Workload] += r.Failed
	}
	for _, wl := range workloadNames {
		for _, d := range endToEnd {
			xa, xb := sa[wl][d.Name], sb[wl][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = (ma - mb) / ma
			}
			sp := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "REGRESSION"
			}
			fmt.Fprintf(w, "%-15s %-14s %14s %14s %+8.1f%% %6.0f%% %8.1f%%  %s\n",
				wl, d.Name, trimFloat(ma), trimFloat(mb), worse*100, d.Bound*100, sp*100, verdict)
		}
		if n := failed[wl]; n > 0 {
			fmt.Fprintf(w, "%-15s %d failed operations across both sets\n", wl, n)
		}
	}
	return nil
}
