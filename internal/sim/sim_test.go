package sim

import (
	"bytes"
	"strings"
	"testing"
)

func TestParamsValidate(t *testing.T) {
	if err := PaperParams().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := QuickParams().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Params){
		func(p *Params) { p.NetworkSize = 5 },
		func(p *Params) { p.AvgDegree = 1 },
		func(p *Params) { p.Transactions = 0 },
		func(p *Params) { p.Replicas = 0 },
		func(p *Params) { p.TrustworthyFrac = 0 },
		func(p *Params) { p.ActiveRequestors = 0 },
		func(p *Params) { p.ProviderPool = 1 },
		func(p *Params) { p.SampleEvery = 0 },
	}
	for i, mut := range bad {
		p := QuickParams()
		mut(&p)
		if p.Validate() == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestTable1Renders(t *testing.T) {
	tab := Table1(PaperParams())
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"Network size", "1000", "Token number", "TTL"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestWorldDeterministic(t *testing.T) {
	p := QuickParams()
	a, err := buildWorld(p, 0, p.AvgDegree, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildWorld(p, 0, p.AvgDegree, 7)
	if err != nil {
		t.Fatal(err)
	}
	wa, wb := a.Workload(50, 3), b.Workload(50, 3)
	for i := range wa {
		if wa[i].Requestor != wb[i].Requestor {
			t.Fatalf("workload diverged at %d", i)
		}
		for j := range wa[i].Candidates {
			if wa[i].Candidates[j] != wb[i].Candidates[j] {
				t.Fatalf("candidates diverged at %d", i)
			}
		}
	}
}

func TestWorkloadWellFormed(t *testing.T) {
	p := QuickParams()
	w, err := buildWorld(p, 0, p.AvgDegree, 3)
	if err != nil {
		t.Fatal(err)
	}
	reqSet := map[int]bool{}
	for _, r := range w.Requestors {
		reqSet[int(r)] = true
	}
	provSet := map[int]bool{}
	for _, pr := range w.Providers {
		provSet[int(pr)] = true
	}
	for i, spec := range w.Workload(100, 3) {
		if !reqSet[int(spec.Requestor)] {
			t.Fatalf("tx %d requestor outside panel", i)
		}
		if len(spec.Candidates) != 3 {
			t.Fatalf("tx %d has %d candidates", i, len(spec.Candidates))
		}
		seen := map[int]bool{}
		for _, c := range spec.Candidates {
			if c == spec.Requestor {
				t.Fatalf("tx %d candidate equals requestor", i)
			}
			if !provSet[int(c)] {
				t.Fatalf("tx %d candidate outside pool", i)
			}
			if seen[int(c)] {
				t.Fatalf("tx %d duplicate candidate", i)
			}
			seen[int(c)] = true
		}
	}
}

func TestForEachTaskRunsAll(t *testing.T) {
	ran := make([]bool, 7)
	err := forEachTask(7, 3, func(i int) error {
		ran[i] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("task %d skipped", i)
		}
	}
}

// TestForEachTaskPropagatesError: nothing new starts once a failure is
// known, and with two failing indices the lower one's error comes back even
// when the higher one fails first.
func TestForEachTaskPropagatesError(t *testing.T) {
	errLow, errHigh := errTest("boom at 2"), errTest("boom at 5")
	fail := func(i int) error {
		switch i {
		case 2:
			return errLow
		case 5:
			return errHigh
		}
		return nil
	}
	started := 0
	err := forEachTask(8, 1, func(i int) error {
		started++
		return fail(i)
	})
	if err != errLow || started != 3 {
		t.Fatalf("one worker: error %v after %d tasks, want %v after 3", err, started, errLow)
	}
	for _, workers := range []int{2, 8} {
		highFailed := make(chan struct{})
		err := forEachTask(64, workers, func(i int) error {
			switch i {
			case 2:
				<-highFailed
			case 5:
				defer close(highFailed)
			}
			return fail(i)
		})
		if err != errLow {
			t.Fatalf("workers=%d: got %v, want the lowest failing index's error %v", workers, err, errLow)
		}
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// tiny returns the smallest params that still exercise every code path.
func tiny() Params {
	p := QuickParams()
	p.NetworkSize = 120
	p.Transactions = 40
	p.Replicas = 1
	p.ActiveRequestors = 6
	p.ProviderPool = 25
	p.SampleEvery = 10
	return p
}

func TestFig5Shape(t *testing.T) {
	res, err := Fig5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("empty fig5 table")
	}
	var buf bytes.Buffer
	res.Table.Render(&buf)
	for _, col := range []string{"voting-2", "voting-3", "voting-4", "hirep"} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("fig5 missing column %s", col)
		}
	}
	// The headline claim: hiREP under half of voting-2's traffic.
	found := false
	for _, n := range res.Notes {
		if strings.Contains(n, "voting-2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fig5 notes lack the voting-2 comparison: %v", res.Notes)
	}
}

func TestFig6Shape(t *testing.T) {
	res, err := Fig6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Table.Render(&buf)
	for _, col := range []string{"voting", "hirep-4", "hirep-6", "hirep-8"} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("fig6 missing column %s:\n%s", col, buf.String())
		}
	}
}

func TestFig7Shape(t *testing.T) {
	p := tiny()
	res, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 9 {
		t.Fatalf("fig7 should have 9 ratio rows, got %d", res.Table.NumRows())
	}
}

func TestFig8Shape(t *testing.T) {
	res, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.Table.Render(&buf)
	for _, col := range []string{"voting", "hirep-10", "hirep-7", "hirep-5"} {
		if !strings.Contains(buf.String(), col) {
			t.Fatalf("fig8 missing column %s", col)
		}
	}
}

func TestOverheadShape(t *testing.T) {
	res, err := Overhead(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 5 {
		t.Fatalf("overhead rows %d", res.Table.NumRows())
	}
	if len(res.Notes) == 0 {
		t.Fatal("overhead notes empty")
	}
}

func TestAttacksShape(t *testing.T) {
	res, err := Attacks(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != 4 {
		t.Fatalf("attack scenarios %d", res.Table.NumRows())
	}
}

func TestExperimentsRejectBadParams(t *testing.T) {
	p := tiny()
	p.Transactions = 0
	if _, err := Fig5(p); err == nil {
		t.Error("fig5 accepted bad params")
	}
	if _, err := Fig6(p); err == nil {
		t.Error("fig6 accepted bad params")
	}
	if _, err := Fig7(p); err == nil {
		t.Error("fig7 accepted bad params")
	}
	if _, err := Fig8(p); err == nil {
		t.Error("fig8 accepted bad params")
	}
}
