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

// TestLiveBackendSmoke runs a small sybil flood and a slander cell against a
// real fleet: every sybil identity is a fresh key rotation, its reports go
// through the agents' batched ingest, and the scores must count them.
func TestLiveBackendSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("live fleet smoke")
	}
	b := LiveBackend{Agents: 2, GoodSubjects: 3, BadSubjects: 2, HonestReports: 4}

	sybil := findCampaign(t, "sybil-flood")
	sybil.Population = attack.Population{Attackers: 2, IdentitiesPer: 2}
	fl, err := b.Run(Spec{Scenario: sybil, ReportsPerIdentity: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if fl.Backend != "live" || fl.Campaign != "sybil-flood" {
		t.Fatalf("mislabeled score %+v", fl)
	}
	if fl.IdentitiesMinted != 4 || fl.ReportsSent != 4*3*2 {
		t.Fatalf("sybil flood effort: %+v, want 4 identities and 24 reports", fl)
	}
	if fl.ReportsAdmitted != fl.ReportsSent {
		t.Fatalf("sybil flood: %d of %d reports stored, want all", fl.ReportsAdmitted, fl.ReportsSent)
	}

	slander := findCampaign(t, "slander-cell")
	slander.Population = attack.Population{Attackers: 2, IdentitiesPer: 1, Victims: 2}
	sl, err := b.Run(Spec{Scenario: slander, ReportsPerIdentity: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sl.ReportsAdmitted == 0 {
		t.Fatalf("slander live run: %+v", sl)
	}
	if sl.VictimMisclass < 0 || sl.VictimMisclass > 1 {
		t.Fatalf("slander misclass out of range: %+v", sl)
	}

	// The composite's fault plan kills 0.3 of the honest agents: on a
	// 2-agent fleet that is one, not int(0.6) = none.
	composite := findCampaign(t, "composite-sybil-dos")
	composite.Population = attack.Population{Attackers: 2, IdentitiesPer: 1, Victims: 2}
	co, err := b.Run(Spec{Scenario: composite, ReportsPerIdentity: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if co.AgentsKilled != 1 {
		t.Fatalf("composite on 2 agents killed %d, want 1", co.AgentsKilled)
	}
}

func TestResistanceTableRenders(t *testing.T) {
	scores := []Score{
		{Backend: "sim", Campaign: "sybil-flood", MSE: 0.12, ReportsSent: 512, ReportsAdmitted: 512},
		{Backend: "live", Campaign: "slander-cell", MSE: 0.08, ReportsSent: 192, ReportsAdmitted: 192},
	}
	tab := ResistanceTable(scores)
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var buf strings.Builder
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"sybil-flood", "victim misclass", "backend"} {
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
}
