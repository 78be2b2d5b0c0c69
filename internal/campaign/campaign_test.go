package campaign

import (
	"strings"
	"testing"

	"hirep/internal/attack"
	"hirep/internal/sim"
)

// tinyParams is the small deterministic world the sim-backend smokes run in.
func tinyParams() sim.Params {
	p := sim.QuickParams()
	p.NetworkSize = 120
	p.Transactions = 40
	p.Replicas = 1
	p.ActiveRequestors = 6
	p.ProviderPool = 25
	p.SampleEvery = 10
	return p
}

// findCampaign pulls a named scenario from the campaign catalog.
func findCampaign(t *testing.T, name string) attack.Scenario {
	t.Helper()
	for _, sc := range attack.Campaigns() {
		if sc.Name == name {
			return sc
		}
	}
	t.Fatalf("campaign %q not in attack.Campaigns()", name)
	return attack.Scenario{}
}

func TestCostAccountant(t *testing.T) {
	// No gate: everything admitted, nothing charged.
	c := newCostAccountant(Admission{}, 0)
	for i := 0; i < 10; i++ {
		if !c.admit(1, 1) {
			t.Fatal("ungated admit refused")
		}
	}
	if c.work != 0 {
		t.Fatalf("ungated work = %d", c.work)
	}

	// Gate at 4 bits, rate cap 3: a solve (16 attempts) buys 3 reports.
	c = newCostAccountant(Admission{PoWBits: 4, RateCap: 3}, 0)
	for i := 0; i < 7; i++ {
		if !c.admit(1, 1) {
			t.Fatal("unbudgeted admit refused")
		}
	}
	// 7 reports = 3 solves (3+3+1): 3*16 attempts.
	if c.work != 3*16 {
		t.Fatalf("work = %d, want 48", c.work)
	}
	// A second agent costs its own solve.
	c.admit(1, 2)
	if c.work != 4*16 {
		t.Fatalf("work after second agent = %d, want 64", c.work)
	}

	// A budget of one solve admits the first identity and refuses the second.
	c = newCostAccountant(Admission{PoWBits: 4}, 16)
	if !c.admit(1, 1) {
		t.Fatal("first identity should afford its solve")
	}
	if c.admit(2, 1) {
		t.Fatal("second identity should exceed the budget")
	}
	// The admitted identity keeps reporting without further charge.
	if !c.admit(1, 1) || c.work != 16 {
		t.Fatalf("admitted identity recharged: work=%d", c.work)
	}
}

// TestSimBackendCampaigns runs every campaign kind through the sim backend in
// a tiny world and sanity-checks the scores.
func TestSimBackendCampaigns(t *testing.T) {
	b := SimBackend{Params: tinyParams()}
	for _, name := range []string{"sybil-flood", "collusion-ring", "slander-cell", "composite-sybil-dos"} {
		sc := findCampaign(t, name)
		score, err := b.Run(Spec{Scenario: sc, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if score.Backend != "sim" || score.Campaign != name {
			t.Fatalf("%s: mislabeled score %+v", name, score)
		}
		if score.ReportsSent == 0 || score.ReportsAdmitted == 0 {
			t.Fatalf("%s: no attack traffic landed: %+v", name, score)
		}
		if score.IdentitiesMinted != int64(sc.Population.Attackers*sc.Population.IdentitiesPer) {
			t.Fatalf("%s: identity count %d", name, score.IdentitiesMinted)
		}
		if name == "composite-sybil-dos" && score.AgentsKilled == 0 {
			t.Fatalf("%s: fault plan killed nobody", name)
		}
		if score.MSE < 0 || score.VictimMisclass < 0 || score.VictimMisclass > 1 {
			t.Fatalf("%s: degenerate damage scores %+v", name, score)
		}
	}
}

// TestSimAdmissionRaisesCost is the acceptance property on the sim backend:
// under a fixed work budget, raising the admission difficulty cuts the
// attacker's reports-admitted-per-unit-work, and an unbudgeted honest-world
// run's MSE is not degraded by the gate (the gate only prices attackers).
func TestSimAdmissionRaisesCost(t *testing.T) {
	b := SimBackend{Params: tinyParams()}
	sc := findCampaign(t, "sybil-flood")

	free, err := b.Run(Spec{Scenario: sc, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	budget := int64(1) << 16
	gated, err := b.Run(Spec{Scenario: sc, Seed: 7,
		Admission: Admission{PoWBits: 12, RateCap: 4}, WorkBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	harder, err := b.Run(Spec{Scenario: sc, Seed: 7,
		Admission: Admission{PoWBits: 16, RateCap: 4}, WorkBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	if gated.ReportsAdmitted >= free.ReportsAdmitted {
		t.Fatalf("budgeted gate admitted %d >= ungated %d", gated.ReportsAdmitted, free.ReportsAdmitted)
	}
	if harder.AdmittedPerWork() >= gated.AdmittedPerWork() {
		t.Fatalf("admitted/work did not fall with difficulty: 16 bits %v >= 12 bits %v",
			harder.AdmittedPerWork(), gated.AdmittedPerWork())
	}
	if gated.Work > budget || harder.Work > budget {
		t.Fatalf("budget overrun: %d / %d > %d", gated.Work, harder.Work, budget)
	}
	// Damage should not grow when the attacker is priced out.
	if harder.MSE > free.MSE+1e-9 {
		t.Fatalf("gated MSE %v worse than ungated %v", harder.MSE, free.MSE)
	}
}

// TestLiveBackendSmoke runs a small sybil flood and a slander cell against a
// real fleet with a cheap-but-real admission gate, checking the measured work
// counter moves and admitted/work falls versus the ungated run.
func TestLiveBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet smoke")
	}
	b := LiveBackend{Agents: 2, GoodSubjects: 3, BadSubjects: 2, HonestReports: 4}

	sybil := findCampaign(t, "sybil-flood")
	sybil.Population = attack.Population{Attackers: 2, IdentitiesPer: 2}
	free, err := b.Run(Spec{Scenario: sybil, ReportsPerIdentity: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if free.Work != 0 || free.ReportsAdmitted == 0 {
		t.Fatalf("ungated live run: %+v", free)
	}

	gated, err := b.Run(Spec{Scenario: sybil, ReportsPerIdentity: 3, Seed: 3,
		Admission: Admission{PoWBits: 6}})
	if err != nil {
		t.Fatal(err)
	}
	if gated.Work == 0 {
		t.Fatalf("gated live run spent no work: %+v", gated)
	}
	if gated.ReportsAdmitted == 0 {
		t.Fatalf("gated live run admitted nothing (auto-solve broken): %+v", gated)
	}
	if gated.AdmittedPerWork() >= free.AdmittedPerWork() {
		t.Fatalf("live admitted/work did not fall: gated %v >= free %v",
			gated.AdmittedPerWork(), free.AdmittedPerWork())
	}

	slander := findCampaign(t, "slander-cell")
	slander.Population = attack.Population{Attackers: 2, IdentitiesPer: 1, Victims: 2}
	sl, err := b.Run(Spec{Scenario: slander, ReportsPerIdentity: 3, Seed: 5,
		Admission: Admission{PoWBits: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if sl.ReportsAdmitted == 0 || sl.Work == 0 {
		t.Fatalf("slander live run: %+v", sl)
	}
	if sl.VictimMisclass < 0 || sl.VictimMisclass > 1 {
		t.Fatalf("slander misclass out of range: %+v", sl)
	}
}

func TestResistanceTableRenders(t *testing.T) {
	scores := []Score{
		{Backend: "sim", Campaign: "sybil-flood", PoWBits: 0, MSE: 0.12, ReportsSent: 512, ReportsAdmitted: 512},
		{Backend: "sim", Campaign: "sybil-flood", PoWBits: 16, MSE: 0.08, ReportsSent: 512, ReportsAdmitted: 64, Work: 1 << 20},
	}
	tab := ResistanceTable(scores)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var buf strings.Builder
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"sybil-flood", "admitted/work", "backend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
	var csv strings.Builder
	tab.RenderCSV(&csv)
	if !strings.Contains(csv.String(), "sim,sybil-flood") {
		t.Fatalf("csv missing data row:\n%s", csv.String())
	}
}

func TestSpecValidate(t *testing.T) {
	b := SimBackend{Params: tinyParams()}
	if _, err := b.Run(Spec{}); err == nil {
		t.Fatal("empty spec should fail validation")
	}
	bad := findCampaign(t, "slander-cell")
	bad.Population.Victims = 0
	if _, err := b.Run(Spec{Scenario: bad}); err == nil {
		t.Fatal("victimless slander should fail validation")
	}
	ok := findCampaign(t, "sybil-flood")
	if _, err := b.Run(Spec{Scenario: ok, Admission: Admission{PoWBits: -1}}); err == nil {
		t.Fatal("negative bits should fail validation")
	}
}
