package sim

import (
	"fmt"
	"math"

	"hirep/internal/attack"
	"hirep/internal/rca"
	"hirep/internal/stats"
	"hirep/internal/topology"
	"hirep/internal/trustme"
	"hirep/internal/xrand"
)

// ExpResult is one regenerated table or figure.
type ExpResult struct {
	Name  string
	Table *stats.Table
	Notes []string
	// Series holds the underlying curves for figure experiments (empty for
	// pure tables); the CLI can render them as ASCII plots.
	Series []*stats.Series
}

// cumulative renders one variant's replicas as a series of running totals of
// y in the given unit, sampled every p.SampleEvery transactions and averaged
// over the replicas.
func cumulative(p Params, name string, replicas [][]txStats, y func(txStats) float64, unit float64) *stats.Series {
	s := stats.NewSeries(name)
	for _, txs := range replicas {
		var cum float64
		for t, tx := range txs {
			cum += y(tx)
			if (t+1)%p.SampleEvery == 0 {
				s.Observe(float64(t+1), cum/unit)
			}
		}
	}
	return s
}

// bucketMSE renders one variant's replicas as a series of the MSE within
// each p.SampleEvery-transaction bucket, averaged over the replicas.
func bucketMSE(p Params, name string, replicas [][]txStats) *stats.Series {
	s := stats.NewSeries(name)
	for _, txs := range replicas {
		var sq float64
		var n int
		for t, tx := range txs {
			sq += tx.sqErr
			n += tx.sqN
			if (t+1)%p.SampleEvery == 0 && n > 0 {
				s.Observe(float64(t+1), sq/float64(n))
				sq, n = 0, 0
			}
		}
	}
	return s
}

// observeGood folds each transaction's outcome into acc as 1 or 0, so its
// mean is the good-choice rate.
func observeGood(acc *stats.Accum, txs []txStats) {
	for _, tx := range txs {
		if tx.good {
			acc.Add(1)
		} else {
			acc.Add(0)
		}
	}
}

// ---------------------------------------------------------------------------
// Figure 5: trust-query traffic cost, hiREP vs pure voting at degree 2/3/4.
// ---------------------------------------------------------------------------

// Fig5 regenerates Figure 5: cumulative trust-query messages (×10²) against
// transactions. Voting floods grow with the overlay degree; hiREP's onion
// unicasts do not depend on degree at all.
func Fig5(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	var vs []variant
	for _, deg := range []int{2, 3, 4} {
		// "voting-n" runs on a BRITE-style power-law graph of average
		// degree n, like every topology in §5.2; even at degree 2 the
		// hubs let a TTL-4 flood reach a large node population.
		vs = append(vs, votingVariant(p, fmt.Sprintf("voting-%d", deg), fmt.Sprintf("fig5-voting-%d", deg), deg, p.Voting))
	}
	// hiREP on the default power-law topology.
	vs = append(vs, hirepVariant(p, "hirep", "fig5-hirep", p.Hirep))
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	series := make([]*stats.Series, len(vs))
	for i, v := range vs {
		series[i] = cumulative(p, v.name, runs[i], func(tx txStats) float64 { return float64(tx.msgs) }, 100)
	}
	table := stats.SeriesTable("Figure 5: trust query traffic cost (messages x10^2, cumulative)", "transactions", series...)
	return ExpResult{Name: "fig5", Table: table, Notes: fig5Notes(series), Series: series}, nil
}

func fig5Notes(series []*stats.Series) []string {
	last := func(s *stats.Series) float64 {
		xs, ys := s.Points()
		if len(ys) == 0 {
			return 0
		}
		_ = xs
		return ys[len(ys)-1]
	}
	byName := map[string]float64{}
	for _, s := range series {
		byName[s.Name] = last(s)
	}
	notes := []string{}
	if v2, h := byName["voting-2"], byName["hirep"]; v2 > 0 && h > 0 {
		notes = append(notes, fmt.Sprintf("hiREP total is %.2fx of voting-2 (paper: < 1/2)", h/v2))
	}
	if byName["voting-2"] < byName["voting-3"] && byName["voting-3"] < byName["voting-4"] {
		notes = append(notes, "voting traffic increases with node degree (matches paper)")
	}
	return notes
}

// ---------------------------------------------------------------------------
// Figure 6: trust accuracy (MSE) vs transactions, 10% malicious.
// ---------------------------------------------------------------------------

// Fig6 regenerates Figure 6: MSE of the estimated trust values against
// transactions, for pure voting and hiREP with removal thresholds 0.4 / 0.6 /
// 0.8 (the paper's hirep-4/6/8 curves).
func Fig6(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	vs := []variant{votingVariant(p, "voting", "fig6-voting", p.AvgDegree, p.Voting)}
	for _, thr := range []float64{0.4, 0.6, 0.8} {
		cfg := p.Hirep
		cfg.RemoveThreshold = thr
		vs = append(vs, hirepVariant(p, fmt.Sprintf("hirep-%d", int(thr*10)), fmt.Sprintf("fig6-hirep-%.1f", thr), cfg))
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	series := make([]*stats.Series, len(vs))
	for i, v := range vs {
		series[i] = bucketMSE(p, v.name, runs[i])
	}
	table := stats.SeriesTable("Figure 6: trust accuracy (MSE) vs transactions, 10% malicious", "transactions", series...)
	return ExpResult{Name: "fig6", Table: table, Notes: fig6Notes(series), Series: series}, nil
}

func fig6Notes(series []*stats.Series) []string {
	first := func(s *stats.Series) float64 { _, ys := s.Points(); return ys[0] }
	last := func(s *stats.Series) float64 { _, ys := s.Points(); return ys[len(ys)-1] }
	byName := map[string]*stats.Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	var notes []string
	v, h8 := byName["voting"], byName["hirep-8"]
	if v != nil && h8 != nil && v.Len() > 0 && h8.Len() > 0 {
		notes = append(notes, fmt.Sprintf("voting MSE stays ~flat (%.3f -> %.3f); hirep-8 falls (%.3f -> %.3f)",
			first(v), last(v), first(h8), last(h8)))
		if last(h8) < last(v) {
			notes = append(notes, "trained hiREP beats voting (matches paper)")
		}
	}
	return notes
}

// ---------------------------------------------------------------------------
// Figure 7: trust accuracy vs malicious-node ratio.
// ---------------------------------------------------------------------------

// Fig7 regenerates Figure 7: MSE over the trained second half of each run as
// the malicious ratio sweeps 10%..90%. Voting collapses because every vote
// counts equally; hiREP's expertise filtering keeps the error bounded ("in an
// extreme case that 90% of reputation agents are poor performed, MSE ... is
// still under 25%", §5.3).
func Fig7(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	ratios := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
	// Per ratio, hiREP and voting on identical world realizations (one
	// seed label), each in its own world.
	var vs []variant
	for _, ratio := range ratios {
		label := fmt.Sprintf("fig7-%.2f", ratio)
		hcfg := p.Hirep
		hcfg.MaliciousFrac = ratio
		vcfg := p.Voting
		vcfg.MaliciousFrac = ratio
		vs = append(vs, hirepVariant(p, "hirep", label, hcfg), votingVariant(p, "voting", label, p.AvgDegree, vcfg))
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	hirepSeries := stats.NewSeries("hirep")
	votingSeries := stats.NewSeries("voting")
	// The first half is the training phase; Figure 7 plots trained accuracy,
	// over the same window for both systems.
	half := p.Transactions / 2
	for i, ratio := range ratios {
		for j, s := range []*stats.Series{hirepSeries, votingSeries} {
			for _, txs := range runs[2*i+j] {
				if mse, ok := tailMSE(txs[half:]); ok {
					s.Observe(ratio*100, mse)
				}
			}
		}
	}
	table := stats.SeriesTable("Figure 7: trust accuracy (MSE) vs malicious node ratio (%)", "attacker %", hirepSeries, votingSeries)
	var notes []string
	h90, _ := hirepSeries.At(90)
	v90, _ := votingSeries.At(90)
	notes = append(notes, fmt.Sprintf("at 90%% attackers: hiREP MSE %.3f (paper: < 0.25), voting MSE %.3f", h90, v90))
	h10, _ := hirepSeries.At(10)
	v10, _ := votingSeries.At(10)
	notes = append(notes, fmt.Sprintf("at 10%% attackers: hiREP %.3f vs voting %.3f", h10, v10))
	return ExpResult{Name: "fig7", Table: table, Notes: notes, Series: []*stats.Series{hirepSeries, votingSeries}}, nil
}

// ---------------------------------------------------------------------------
// Figure 8: cumulative response time.
// ---------------------------------------------------------------------------

// onionLengthVariants is pure voting beside hiREP at the given onion lengths,
// the systems Figure 8 and the latency table compare.
func onionLengthVariants(p Params, exp string, relays ...int) []variant {
	vs := []variant{votingVariant(p, "voting", exp+"-voting", p.AvgDegree, p.Voting)}
	for _, r := range relays {
		cfg := p.Hirep
		cfg.OnionRelays = r
		vs = append(vs, hirepVariant(p, fmt.Sprintf("hirep-%d", r), fmt.Sprintf("%s-hirep-%d", exp, r), cfg))
	}
	return vs
}

// Fig8 regenerates Figure 8: cumulative trust-request response time against
// transactions for pure voting and hiREP with 5/7/10 onion relays. Fewer
// relays mean shorter paths; voting pays for flood congestion.
func Fig8(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	vs := onionLengthVariants(p, "fig8", 10, 7, 5)
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	series := make([]*stats.Series, len(vs))
	for i, v := range vs {
		series[i] = cumulative(p, v.name, runs[i], func(tx txStats) float64 { return tx.resp }, 1)
	}
	table := stats.SeriesTable("Figure 8: cumulative response time (ms) vs transactions", "transactions", series...)
	var notes []string
	finals := map[string]float64{}
	for _, s := range series {
		_, ys := s.Points()
		if len(ys) > 0 {
			finals[s.Name] = ys[len(ys)-1]
		}
	}
	if finals["hirep-5"] < finals["hirep-7"] && finals["hirep-7"] < finals["hirep-10"] {
		notes = append(notes, "fewer onion relays -> lower response time (matches paper)")
	}
	if finals["hirep-10"] < finals["voting"] {
		notes = append(notes, "hiREP responds faster than flooding even with 10 relays (matches paper)")
	} else {
		notes = append(notes, fmt.Sprintf("voting %.0f vs hirep-10 %.0f ms cumulative", finals["voting"], finals["hirep-10"]))
	}
	return ExpResult{Name: "fig8", Table: table, Notes: notes, Series: series}, nil
}

// ---------------------------------------------------------------------------
// §4.1 overhead check and TrustMe comparison.
// ---------------------------------------------------------------------------

// Overhead verifies the §4.1 analysis: hiREP's trust-distribution traffic per
// transaction is O(c), and compares it with one pure-voting poll and one
// TrustMe double broadcast.
func Overhead(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	// One world realization, at most 50 transactions, five systems.
	p.Replicas = 1
	p.Transactions = min(p.Transactions, 50)
	// §5.3's remark: "In the real system, TTL value is generally set to be 7,
	// which suggests more messages will be sent out" — measure it.
	v7cfg := p.Voting
	v7cfg.TTL = 7
	vs := []variant{
		hirepVariant(p, "hirep", "overhead", p.Hirep),
		votingVariant(p, "voting", "overhead", p.AvgDegree, p.Voting),
		votingVariant(p, "voting-ttl7", "overhead", p.AvgDegree, v7cfg),
		{"trustme", "overhead", func(seed int64) ([]TxSpec, func(TxSpec) txStats, error) {
			w, err := buildWorld(p, topology.PowerLaw, p.AvgDegree, seed)
			if err != nil {
				return nil, nil, err
			}
			sys, err := trustme.NewSystem(w.Net, w.Oracle, p.TrustMe, xrand.New(seed))
			if err != nil {
				return nil, nil, err
			}
			return w.Workload(p.Transactions, p.TrustMe.CandidatesPerTx), func(spec TxSpec) txStats {
				return txStats{msgs: sys.RunTransaction(spec.Requestor, spec.Candidates).TrustMessages}
			}, nil
		}},
		// The centralized corner of §3.1's design space: a single RCA server.
		{"central-rca", "overhead", func(seed int64) ([]TxSpec, func(TxSpec) txStats, error) {
			w, err := buildWorld(p, topology.PowerLaw, p.AvgDegree, seed)
			if err != nil {
				return nil, nil, err
			}
			cfg := rca.DefaultConfig()
			sys, err := rca.NewSystem(w.Net, w.Oracle, cfg, xrand.New(seed))
			if err != nil {
				return nil, nil, err
			}
			return w.Workload(p.Transactions, cfg.CandidatesPerTx), func(spec TxSpec) txStats {
				r := sys.RunTransaction(spec.Requestor, spec.Candidates)
				return txStats{msgs: r.TrustMessages, resp: float64(r.ResponseTime)}
			}, nil
		}},
	}
	runs, err := replay(p, vs)
	if err != nil {
		return ExpResult{}, err
	}
	msgs := make([]float64, len(vs)) // mean msgs/tx, in vs order
	var rcaResp stats.Accum
	for i := range vs {
		var acc stats.Accum
		for _, tx := range runs[i][0] {
			acc.Add(float64(tx.msgs))
			if i == len(vs)-1 {
				rcaResp.Add(tx.resp)
			}
		}
		msgs[i] = acc.Mean()
	}

	c, o := p.Hirep.TrustedAgents, p.Hirep.OnionRelays
	analytic := 2 * c * (o + o) // the paper's 2c(o_i+o_j) with o_i=o_j=o
	exact := 3 * c * (o + 1)    // this implementation: req+resp+report, each o+1 hops
	table := stats.NewTable("Trust-distribution overhead per transaction (§4.1)",
		"system", "mean msgs/tx", "max-analytic", "note")
	table.AddRow("hirep", msgs[0], exact, fmt.Sprintf("paper bound 2c(oi+oj)=%d; O(c)", analytic))
	table.AddRow("voting", msgs[1], "-", "TTL-4 flood + reverse-path votes")
	table.AddRow("voting-ttl7", msgs[2], "-", "deployed-Gnutella TTL (§5.3 remark)")
	table.AddRow("trustme", msgs[3], "-", "double broadcast (query + report)")
	table.AddRow("central-rca", msgs[4], "-",
		fmt.Sprintf("cheapest but a bottleneck + SPOF (§3.1); resp %.0f ms", rcaResp.Mean()))
	notes := []string{
		fmt.Sprintf("hiREP %.0f msgs/tx vs voting %.0f (%.1fx less) vs trustme %.0f",
			msgs[0], msgs[1], msgs[1]/math.Max(msgs[0], 1), msgs[3]),
	}
	return ExpResult{Name: "overhead", Table: table, Notes: notes}, nil
}

// ---------------------------------------------------------------------------
// §4.2 robustness scenarios.
// ---------------------------------------------------------------------------

// Attacks exercises the §4.2 attack analysis end to end: trusted-agent list
// poisoning, sybil-style malicious inflation, and a DoS that removes half the
// honest agents mid-run. Reported per scenario: the final-window MSE and the
// rate of choosing a trustworthy provider.
func Attacks(p Params) (ExpResult, error) {
	if err := p.Validate(); err != nil {
		return ExpResult{}, err
	}
	scenarios := attack.Catalog()
	type outcome struct {
		mse, rate float64
		killed    int
	}
	rows := make([]outcome, len(scenarios))
	err := forEachTask(len(scenarios), p.workers(), func(i int) error {
		sc := scenarios[i]
		cfg := p.Hirep
		sc.Apply(&cfg)
		w, sys, err := newHirep(p, cfg, replicaSeed(p.Seed, "attacks-"+sc.Name, 0))
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		sys.Bootstrap()
		lastQuarter := p.Transactions * 3 / 4
		dosAt := 0
		if sc.Faults.KillHonestFrac > 0 {
			dosAt = p.Transactions / 2
		}
		row := &rows[i]
		var sq float64
		var n, good, goodN int
		for t, spec := range w.Workload(p.Transactions, cfg.CandidatesPerTx) {
			if dosAt > 0 && t == dosAt {
				row.killed = len(sys.KillAgents(sc.Faults.KillHonestFrac))
			}
			r := sys.RunTransaction(spec.Requestor, spec.Candidates)
			if t >= lastQuarter {
				sq += r.SqErr
				n += r.SqN
				goodN++
				if r.Outcome {
					good++
				}
			}
		}
		if n > 0 {
			row.mse = sq / float64(n)
		}
		if goodN > 0 {
			row.rate = float64(good) / float64(goodN)
		}
		return nil
	})
	if err != nil {
		return ExpResult{}, err
	}
	table := stats.NewTable("Robustness against attacks (§4.2)",
		"scenario", "final MSE", "good-choice rate", "agents killed")
	var notes []string
	for i, sc := range scenarios {
		table.AddRow(sc.Name, rows[i].mse, rows[i].rate, rows[i].killed)
		notes = append(notes, fmt.Sprintf("%s: MSE %.3f, good-choice %.2f", sc.Name, rows[i].mse, rows[i].rate))
	}
	return ExpResult{Name: "attacks", Table: table, Notes: notes}, nil
}
