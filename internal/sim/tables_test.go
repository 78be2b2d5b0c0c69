package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"strconv"
	"sync"
	"testing"
)

// experiments is `hirepsim -exp all`, in its order.
var experiments = []struct {
	name string
	run  func(Params) (ExpResult, error)
}{
	{"table1", func(p Params) (ExpResult, error) { return ExpResult{Name: "table1", Table: Table1(p)}, nil }},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7", Fig7},
	{"fig8", Fig8},
	{"overhead", Overhead},
	{"attacks", Attacks},
	{"churn", Churn},
	{"models", Models},
	{"latency", Latency},
	{"bytes", BytesView},
	{"tokens", Tokens},
	{"loss", Loss},
}

// csvTables runs every experiment at QuickParams with the given worker count
// and returns each table rendered as CSV, keyed by experiment name.
func csvTables(t *testing.T, workers int) map[string][]byte {
	t.Helper()
	p := QuickParams()
	p.Workers = workers
	out := make(map[string][]byte, len(experiments))
	for _, e := range experiments {
		res, err := e.run(p)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		var buf bytes.Buffer
		res.Table.RenderCSV(&buf)
		out[e.name] = buf.Bytes()
	}
	return out
}

var quick struct {
	once   sync.Once
	tables map[string][]byte
}

// quickTables is one csvTables run with one worker, shared by the golden,
// repeat and shape tests so the suite pays for it once.
func quickTables(t *testing.T) map[string][]byte {
	t.Helper()
	quick.once.Do(func() { quick.tables = csvTables(t, 1) })
	if quick.tables == nil {
		t.Fatal("the shared QuickParams run failed in an earlier test")
	}
	return quick.tables
}

// column returns the named column of the named QuickParams table as numbers.
func column(t *testing.T, table, header string) []float64 {
	t.Helper()
	recs, err := csv.NewReader(bytes.NewReader(quickTables(t)[table])).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", table, err)
	}
	for c, h := range recs[0] {
		if h != header {
			continue
		}
		out := make([]float64, len(recs)-1)
		for r, rec := range recs[1:] {
			if out[r], err = strconv.ParseFloat(rec[c], 64); err != nil {
				t.Fatalf("%s[%d].%s: %v", table, r, header, err)
			}
		}
		return out
	}
	t.Fatalf("%s has no column %q: %v", table, header, recs[0])
	return nil
}

// goldenDigests holds the SHA-256 of each experiment's CSV at QuickParams
// (seed 2006). Every digest except churn and loss was computed on the commit
// before the allocation-free voting poll and the task scheduler landed, with
// Workers=1: they pin that neither moved a table. churn and loss were not a
// function of the seed before that change (core.refill restored backups in
// map order); their digests were recorded from it.
var goldenDigests = map[string]string{
	"table1":   "6794bc42af3a9d1255c9e8a307f4fe10da0700181d2b3ce09009c75d742201a5",
	"fig5":     "e9c3f3f9d075edf009b325162a218ef928df4ac1c1cebcda11eebb707d422b94",
	"fig6":     "5bcdd6b55e7ad99daa5cc69a219d28359c61c7a66aa23d1853eba8e33ece38a4",
	"fig7":     "95a138506c49aa9a62dac81e052a473213e728c7ac78952bb9fc80143414af44",
	"fig8":     "fe54d72c2fe54f056fd50027257901b6848b606e25b354250894fdb4cd4968d6",
	"overhead": "06d0b83cf33e4f765ef3e8e542cefe9435f3bfab28bb6cc9ac6b7a37293c3c2b",
	"attacks":  "cbe0e8fd73f2508f91f37328ff8fa7c4b8fb1f66b3dca2bc627f0cfdfbc02d81",
	"churn":    "1d7dec938501fd882c5c40efc9eda482a6286ca27d8af15ba6b3a19b77805243",
	"models":   "8abc0f9d0e6c90d48a376b5ad88396151153506d7df5dfa81185a067808d082a",
	"latency":  "57af6a61348d999a94b08a778d2e573266894fe973f7bceba41e1f5714704aa0",
	"bytes":    "7514258ba0de68772d6735ecfb8bb2934b2955e1393099e266744dbfcf6e5eea",
	"tokens":   "04405501f32db3a7265410981b8082b4b40804e380209d9e31f5d2f77f964f66",
	"loss":     "4c73d615c07f6bf7da3c4a887f9a47ed5b21137194df581b7ff5db7057a3b72b",
}

// TestTablesGolden pins every result table to its recorded digest: a change
// that is meant to preserve output must leave all of them alone, and one that
// is meant to move a table must say so by updating its line.
func TestTablesGolden(t *testing.T) {
	tables := quickTables(t)
	for _, e := range experiments {
		sum := sha256.Sum256(tables[e.name])
		if got, want := hex.EncodeToString(sum[:]), goldenDigests[e.name]; got != want {
			t.Errorf("%s: table moved: digest %s, want %s\n%s", e.name, got, want, tables[e.name])
		}
	}
}

// TestTablesRepeat runs every experiment twice with one worker and twice with
// four and demands byte-identical CSV across all four runs: the tables are a
// function of the seed alone, not of the schedule. Under -race it also covers
// every experiment's parallel path.
func TestTablesRepeat(t *testing.T) {
	ref := quickTables(t)
	for _, workers := range []int{1, 4, 4} {
		got := csvTables(t, workers)
		for _, e := range experiments {
			if !bytes.Equal(ref[e.name], got[e.name]) {
				t.Errorf("%s: a Workers=%d run differs from the first Workers=1 run:\n%s\nvs\n%s", e.name, workers, got[e.name], ref[e.name])
			}
		}
	}
}

func increasing(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			return false
		}
	}
	return true
}

// TestModelsShape: §4.2.3's claim — under lying reporters the
// credibility-weighted model beats the plain tally, and lying hurts the tally.
func TestModelsShape(t *testing.T) {
	mse := column(t, "models", "final MSE") // rating, tally, credibility; honest then lying
	if len(mse) != 6 {
		t.Fatalf("models rows %d", len(mse))
	}
	if tally, cred := mse[4], mse[5]; cred >= tally {
		t.Errorf("lying reporters: credibility MSE %v not below tally %v", cred, tally)
	}
	if honest, lying := mse[1], mse[4]; lying <= honest {
		t.Errorf("tally MSE %v with lying reporters not above %v without", lying, honest)
	}
}

// TestTokensShape: list coverage is monotone in the token budget with its
// knee near Table 1's 10, and bootstrap traffic keeps growing past it.
func TestTokensShape(t *testing.T) {
	tokens, size := column(t, "tokens", "tokens"), column(t, "tokens", "avg list size")
	for i := 1; i < len(size); i++ {
		if size[i] < size[i-1] {
			t.Errorf("avg list size falls from %v to %v between %v and %v tokens", size[i-1], size[i], tokens[i-1], tokens[i])
		}
	}
	want := float64(QuickParams().Hirep.TrustedAgents)
	for i, tok := range tokens {
		switch {
		case tok == 3 && size[i] > 0.85*want:
			t.Errorf("3 tokens already fill lists to %v of %v: no knee", size[i], want)
		case tok >= 10 && size[i] < 0.95*want:
			t.Errorf("%v tokens fill lists only to %v of %v", tok, size[i], want)
		}
	}
	if msgs := column(t, "tokens", "bootstrap msgs/peer"); !increasing(msgs) {
		t.Errorf("bootstrap msgs/peer not increasing in tokens: %v", msgs)
	}
}

// TestBytesShape: hiREP wins in both units, by less in bytes than in
// messages (its messages carry onions).
func TestBytesShape(t *testing.T) {
	msgs, byt := column(t, "bytes", "msgs/tx"), column(t, "bytes", "bytes/tx") // hirep, voting
	msgAdv, byteAdv := msgs[1]/msgs[0], byt[1]/byt[0]
	if byteAdv <= 1 || byteAdv >= msgAdv {
		t.Errorf("bytes advantage %.2fx, messages advantage %.2fx: want 1 < bytes < messages", byteAdv, msgAdv)
	}
}

// TestChurnShape: churn costs answers and maintenance traffic, and accuracy
// at 40% offline is no better than with no churn.
func TestChurnShape(t *testing.T) {
	mse := column(t, "churn", "final MSE") // offline 0, 0.1, 0.2, 0.4
	if last := len(mse) - 1; mse[last] < mse[0] {
		t.Errorf("MSE %v at 40%% offline better than %v at 0%%", mse[last], mse[0])
	}
	if maint := column(t, "churn", "maint msgs/tx"); !increasing(maint) {
		t.Errorf("maintenance msgs/tx not increasing with offline probability: %v", maint)
	}
	resp := column(t, "churn", "responses/tx")
	for i := 1; i < len(resp); i++ {
		if resp[i] >= resp[i-1] {
			t.Errorf("responses/tx not falling with offline probability: %v", resp)
		}
	}
	if hits := column(t, "churn", "backup hits"); hits[0] != 0 || hits[len(hits)-1] == 0 {
		t.Errorf("backup cache: %v entries with no churn, %v at 40%% offline", hits[0], hits[len(hits)-1])
	}
}

// TestLossShape: hiREP's few high-value messages suffer under loss — answers
// per transaction fall steeply — while voting's redundant flood degrades
// gently and ends up the more accurate system at 20% loss.
func TestLossShape(t *testing.T) {
	resp, voters := column(t, "loss", "hirep responses/tx"), column(t, "loss", "voting voters/tx")
	for i := 1; i < len(resp); i++ {
		if resp[i] >= resp[i-1] || voters[i] >= voters[i-1] {
			t.Errorf("answers/tx not falling with loss: hirep %v, voting %v", resp, voters)
		}
	}
	last := len(resp) - 1
	if h, v := resp[last]/resp[0], voters[last]/voters[0]; h >= v {
		t.Errorf("at 20%% loss hiREP keeps %.2f of its answers, voting %.2f: voting should degrade more gently", h, v)
	}
	hMSE, vMSE := column(t, "loss", "hirep MSE"), column(t, "loss", "voting MSE")
	if hMSE[0] >= vMSE[0] || hMSE[last] <= vMSE[last] {
		t.Errorf("hiREP MSE %v -> %v, voting %v -> %v: want hiREP ahead without loss and behind at 20%%",
			hMSE[0], hMSE[last], vMSE[0], vMSE[last])
	}
}

// TestLatencyShape: shorter onions answer sooner, and the flood's congestion
// tail is the slowest of all.
func TestLatencyShape(t *testing.T) {
	p50, p99 := column(t, "latency", "P50"), column(t, "latency", "P99") // voting, hirep-5, -7, -10
	if !increasing(p50[1:]) {
		t.Errorf("hiREP P50 not increasing with onion length: %v", p50[1:])
	}
	if p99[0] <= p99[3] {
		t.Errorf("voting P99 %v not above hirep-10 P99 %v", p99[0], p99[3])
	}
}
