package sim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hirep/internal/core"
	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/trust"
	"hirep/internal/voting"
	"hirep/internal/xrand"
)

// TxSpec is one workload unit: who transacts and which provider candidates
// they evaluate. Both systems replay the same specs for a fair comparison.
type TxSpec struct {
	Requestor  topology.NodeID
	Candidates []topology.NodeID
}

// World is one replica's substrate: a topology, a fresh simulator over it,
// ground truth, and the workload population.
type World struct {
	Graph      *topology.Graph
	Net        *simnet.Network
	Oracle     *trust.Oracle
	Requestors []topology.NodeID
	Providers  []topology.NodeID
	rng        *xrand.RNG
}

// buildWorld constructs a replica world. Worlds with equal (params, model,
// degree, seed) are identical; each protocol under test gets its own world so
// handlers do not clash, but shares the graph/oracle/workload realization.
func buildWorld(p Params, model topology.Model, degree int, seed int64) (*World, error) {
	rng := xrand.New(seed)
	g, err := topology.Generate(topology.GenSpec{Model: model, N: p.NetworkSize, AvgDegree: degree}, rng.Split("topo"))
	if err != nil {
		return nil, err
	}
	netCfg := p.Net
	netCfg.Seed = seed
	if netCfg.LatencyMax == 0 {
		netCfg = simnet.DefaultConfig(seed)
	}
	net, err := simnet.New(g, netCfg)
	if err != nil {
		return nil, err
	}
	if p.Metrics != nil {
		net.SetObserver(p.Metrics)
	}
	oracle := trust.NewOracle(p.NetworkSize, p.TrustworthyFrac, rng.Split("oracle"))
	w := &World{Graph: g, Net: net, Oracle: oracle, rng: rng}
	pop := rng.Split("population")
	for _, idx := range pop.Choose(p.NetworkSize, p.ActiveRequestors) {
		w.Requestors = append(w.Requestors, topology.NodeID(idx))
	}
	for _, idx := range pop.Choose(p.NetworkSize, p.ProviderPool) {
		w.Providers = append(w.Providers, topology.NodeID(idx))
	}
	return w, nil
}

// NewWorld constructs a replica world for external harnesses (the campaign
// driver's sim backend builds its battlefield through it). Same determinism
// contract as buildWorld.
func NewWorld(p Params, model topology.Model, degree int, seed int64) (*World, error) {
	return buildWorld(p, model, degree, seed)
}

// Workload derives the deterministic transaction sequence for this world.
func (w *World) Workload(txns, candidatesPerTx int) []TxSpec {
	rng := w.rng.Split("workload")
	specs := make([]TxSpec, txns)
	for t := range specs {
		req := w.Requestors[rng.Intn(len(w.Requestors))]
		cands := make([]topology.NodeID, 0, candidatesPerTx)
		for _, idx := range rng.Choose(len(w.Providers), candidatesPerTx+1) {
			c := w.Providers[idx]
			if c == req {
				continue
			}
			cands = append(cands, c)
			if len(cands) == candidatesPerTx {
				break
			}
		}
		specs[t] = TxSpec{Requestor: req, Candidates: cands}
	}
	return specs
}

// replicaSeed derives the seed of replica rep for an experiment label.
func replicaSeed(base int64, label string, rep int) int64 {
	return xrand.New(base).Split(label).SplitN("replica", rep).Seed()
}

// forEachTask runs fn(i) for every i in [0,n) on up to workers goroutines,
// the one scheduler every experiment hands its independent worlds to. Workers
// pull indices in ascending order. After a failure no further index is handed
// out, and the error returned is the lowest failing index's: every index
// below a failing one was handed out before it and ran to completion, so
// which error the caller sees does not depend on the schedule.
//
// fn must keep its results to itself — a slot indexed by i — and leave the
// folding to the caller, after forEachTask returns and in index order. That
// is what makes a table a function of the seed and not of the worker count.
func forEachTask(n, workers int, fn func(i int) error) error {
	workers = max(min(workers, n), 1)
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if errs[i] = fn(i); errs[i] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// newHirep builds replica world seed on the default power-law overlay and a
// hiREP system over it, not yet bootstrapped.
func newHirep(p Params, cfg core.Config, seed int64) (*World, *core.System, error) {
	w, err := buildWorld(p, topology.PowerLaw, p.AvgDegree, seed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := core.NewSystem(w.Net, w.Oracle, cfg, xrand.New(seed))
	return w, sys, err
}

// newVoting builds replica world seed on a power-law overlay of the given
// average degree and a pure-voting system over it.
func newVoting(p Params, cfg voting.Config, degree int, seed int64) (*World, *voting.System, error) {
	w, err := buildWorld(p, topology.PowerLaw, degree, seed)
	if err != nil {
		return nil, nil, err
	}
	sys, err := voting.NewSystem(w.Net, w.Oracle, cfg, xrand.New(seed))
	return w, sys, err
}

// txStats is what one transaction contributes to the tables, whichever
// system ran it.
type txStats struct {
	msgs    int64   // trust-query messages
	bytes   int64   // their wire bytes
	maint   int64   // list-maintenance messages the transaction triggered (hiREP)
	sqErr   float64 // squared estimation error summed over sqN candidates
	sqN     int
	resp    float64 // response time, ms
	answers int     // agents that answered (hiREP) or votes counted (voting)
	good    bool    // the chosen provider served well
}

// variant is one system configuration of an experiment — a series of a
// figure, a row of a table. open builds the variant's own world for a replica
// seed and returns its workload and the function that runs one unit of it.
type variant struct {
	name  string // series or row name
	label string // replica-seed label; variants sharing one run on identical worlds
	open  func(seed int64) ([]TxSpec, func(TxSpec) txStats, error)
}

// bytesOf sums net's byte counters over kinds.
func bytesOf(net *simnet.Network, kinds []string) int64 {
	var total int64
	for _, k := range kinds {
		total += net.Bytes(k)
	}
	return total
}

func hirepStats(r core.TxResult) txStats {
	return txStats{msgs: r.TrustMessages, maint: r.MaintMessages, sqErr: r.SqErr, sqN: r.SqN,
		resp: float64(r.ResponseTime), answers: r.Responded, good: r.Outcome}
}

// hirepVariant is a bootstrapped hiREP system with configuration cfg.
func hirepVariant(p Params, name, label string, cfg core.Config) variant {
	return variant{name, label, func(seed int64) ([]TxSpec, func(TxSpec) txStats, error) {
		w, sys, err := newHirep(p, cfg, seed)
		if err != nil {
			return nil, nil, err
		}
		sys.Bootstrap()
		kinds := core.TrafficKinds()
		return w.Workload(p.Transactions, cfg.CandidatesPerTx), func(spec TxSpec) txStats {
			b0 := bytesOf(w.Net, kinds)
			tx := hirepStats(sys.RunTransaction(spec.Requestor, spec.Candidates))
			tx.bytes = bytesOf(w.Net, kinds) - b0
			return tx
		}, nil
	}}
}

// votingVariant is a pure-voting system on an overlay of the given degree.
func votingVariant(p Params, name, label string, degree int, cfg voting.Config) variant {
	return variant{name, label, func(seed int64) ([]TxSpec, func(TxSpec) txStats, error) {
		w, sys, err := newVoting(p, cfg, degree, seed)
		if err != nil {
			return nil, nil, err
		}
		kinds := []string{voting.KindVoteReq, voting.KindVoteResp}
		return w.Workload(p.Transactions, cfg.CandidatesPerTx), func(spec TxSpec) txStats {
			b0 := bytesOf(w.Net, kinds)
			r := sys.RunTransaction(spec.Requestor, spec.Candidates)
			return txStats{msgs: r.TrustMessages, bytes: bytesOf(w.Net, kinds) - b0, sqErr: r.SqErr, sqN: r.SqN,
				resp: float64(r.ResponseTime), answers: r.Voters, good: r.Outcome}
		}, nil
	}}
}

// replay runs every (variant, replica) world of an experiment as one task
// list and returns each world's transactions in workload order, indexed
// [variant][replica]. Callers fold them into series and accumulators
// serially, in that order.
func replay(p Params, vs []variant) ([][][]txStats, error) {
	out := make([][][]txStats, len(vs))
	for i := range out {
		out[i] = make([][]txStats, p.Replicas)
	}
	err := forEachTask(len(vs)*p.Replicas, p.workers(), func(i int) error {
		v, rep := i/p.Replicas, i%p.Replicas
		specs, run, err := vs[v].open(replicaSeed(p.Seed, vs[v].label, rep))
		if err != nil {
			return fmt.Errorf("%s replica %d: %w", vs[v].name, rep, err)
		}
		txs := make([]txStats, len(specs))
		for t, spec := range specs {
			txs[t] = run(spec)
		}
		out[v][rep] = txs
		return nil
	})
	return out, err
}

// tailMSE is the mean squared error over the tail of one world's
// transactions — the trained window the accuracy tables report. ok is false
// when the window holds no estimate.
func tailMSE(tail []txStats) (mse float64, ok bool) {
	var sq float64
	var n int
	for _, tx := range tail {
		sq += tx.sqErr
		n += tx.sqN
	}
	if n == 0 {
		return 0, false
	}
	return sq / float64(n), true
}
