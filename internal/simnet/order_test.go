package simnet

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// This file checks the event loop against a short reference of the DESIGN.md
// §6 delivery model: one sorted slice of pending events instead of the heap,
// the completion ring, the slab and the service flags. Both engines run the
// same seeded protocol, whose every action is a function of the seed and a
// message or timer ID, so any difference in the order of events shows up as
// a different delivery trace.

// orderDelivery is one traced handler invocation.
type orderDelivery struct {
	at, queued Time
	from, to   int
	kind       string
}

// orderTracer records Network deliveries.
type orderTracer struct{ got []orderDelivery }

func (t *orderTracer) Record(at, _, queued float64, kind string, from, to int) {
	t.got = append(t.got, orderDelivery{Time(at), Time(queued), from, to, kind})
}

// runStatsTap keeps the last RunStats.
type runStatsTap struct{ last RunStats }

func (*runStatsTap) Delivery(string, float64, float64) {}
func (o *runStatsTap) RunDone(r RunStats)              { o.last = r }

// engine is what the scripted protocol drives: Network or the reference.
type engine interface {
	send(from, to int, kind Kind, id int)
	after(d Time, fn func())
	at(t Time, fn func())
	reset()
	now() Time
}

// netEngine adapts Network.
type netEngine struct{ n *Network }

func (e netEngine) send(from, to int, kind Kind, id int) {
	e.n.SendKind(topology.NodeID(from), topology.NodeID(to), kind, id)
}
func (e netEngine) after(d Time, fn func()) { e.n.After(d, fn) }
func (e netEngine) at(t Time, fn func())    { e.n.At(t, fn) }
func (e netEngine) reset()                  { e.n.ResetCounters() }
func (e netEngine) now() Time               { return e.n.Now() }

// refMsg is a message in the reference model.
type refMsg struct {
	from, to int
	kind     Kind
	id       int
	epoch    int
	arrived  Time // while waiting: the arrival instant
}

// refEvent is one pending reference event: an arrival, a service
// completion or a timer.
type refEvent struct {
	at     Time
	seq    uint64
	phase  int // 0 arrival, 1 completion, 2 timer
	msg    refMsg
	queued Time // completion: the message's queueing delay
	fn     func()
}

// refNet is the reference: every step sorts the pending events by
// (time, schedule order) and runs the first.
type refNet struct {
	cfg       Config
	lat       func(a, b int) Time
	loss      *xrand.RNG
	clock     Time
	seq       uint64
	pending   []refEvent
	busy      []bool
	waiting   [][]refMsg
	nWaiting  int
	peak      int
	epoch     int
	total     int64
	delivered int64
	dropped   int64
	events    int64
	trace     []orderDelivery
	handler   func(m refMsg)
}

func (r *refNet) push(e refEvent) {
	r.seq++
	e.seq = r.seq
	r.pending = append(r.pending, e)
}

func (r *refNet) notePeak() { r.peak = max(r.peak, len(r.pending)+r.nWaiting) }

func (r *refNet) send(from, to int, kind Kind, id int) {
	r.total++
	if r.loss != nil && r.loss.Bool(r.cfg.LossProb) {
		r.dropped++
		return
	}
	r.push(refEvent{at: r.clock + r.lat(from, to), msg: refMsg{from: from, to: to, kind: kind, id: id, epoch: r.epoch}})
	r.notePeak()
}

func (r *refNet) after(d Time, fn func()) { r.at(r.clock+d, fn) }

func (r *refNet) at(t Time, fn func()) {
	r.push(refEvent{at: t, phase: 2, fn: fn})
	r.notePeak()
}

func (r *refNet) reset() {
	r.total, r.delivered, r.dropped = 0, 0, 0
	r.epoch++
}

func (r *refNet) now() Time { return r.clock }

func (r *refNet) deliver(m refMsg, queued Time) {
	if m.epoch == r.epoch {
		r.delivered++
	}
	r.trace = append(r.trace, orderDelivery{r.clock, queued, m.from, m.to, m.kind.String()})
	r.handler(m)
}

func (r *refNet) run() {
	proc := r.cfg.ProcPerMsg
	for len(r.pending) > 0 {
		slices.SortFunc(r.pending, func(a, b refEvent) int {
			return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
		})
		e := r.pending[0]
		r.pending = r.pending[1:]
		r.clock = e.at
		r.events++
		switch {
		case e.phase == 2:
			e.fn()
		case e.phase == 0 && r.busy[e.msg.to]:
			e.msg.arrived = r.clock
			r.waiting[e.msg.to] = append(r.waiting[e.msg.to], e.msg)
			r.nWaiting++
		case e.phase == 0 && proc > 0:
			r.busy[e.msg.to] = true
			r.push(refEvent{at: r.clock + proc, phase: 1, msg: e.msg})
		case e.phase == 0:
			r.deliver(e.msg, 0)
		default: // completion: start the next waiting message, then deliver
			to := e.msg.to
			if q := r.waiting[to]; len(q) > 0 {
				next := q[0]
				r.waiting[to] = q[1:]
				r.nWaiting--
				r.push(refEvent{at: r.clock + proc, phase: 1, msg: next, queued: r.clock - next.arrived})
			} else {
				r.busy[to] = false
			}
			r.deliver(e.msg, e.queued)
		}
	}
}

// script is a seeded protocol: what the schedule does at the start, and
// what each message and timer does when it runs, as functions of the seed
// and the message or timer ID only.
type script struct {
	seed   int64
	nodes  int
	kinds  []Kind
	budget int // messages sent in all
	sent   int
	timers int
}

func (s *script) rng(label string, id int) *xrand.RNG {
	return xrand.New(s.seed).SplitN(label, id)
}

func (s *script) sendFrom(e engine, from int, r *xrand.RNG) {
	if s.sent >= s.budget {
		return
	}
	to := r.Intn(s.nodes)
	kind := s.kinds[r.Intn(len(s.kinds))]
	s.sent++
	e.send(from, to, kind, s.sent)
}

// timer schedules timer ID s.timers+1: an At on a coarse grid (so several
// timers share an instant) or an After, which sends when it fires.
func (s *script) timer(e engine, node int, r *xrand.RNG) {
	s.timers++
	id := s.timers
	fire := func() {
		tr := s.rng("timer", id)
		for k := tr.Intn(3); k > 0; k-- {
			s.sendFrom(e, node, tr)
		}
	}
	if r.Intn(2) == 0 {
		e.at(e.now()+Time(r.Intn(4)), fire)
	} else {
		e.after(Time(r.Intn(3))*0.5, fire)
	}
}

// start schedules the initial sends: same-instant bursts on one link, plus
// scattered sends and timers.
func (s *script) start(e engine) {
	r := s.rng("start", 0)
	for b := 1 + r.Intn(3); b > 0; b-- {
		from, to := r.Intn(s.nodes), r.Intn(s.nodes)
		for k := 2 + r.Intn(6); k > 0 && s.sent < s.budget; k-- {
			s.sent++
			e.send(from, to, s.kinds[0], s.sent)
		}
	}
	for k := r.Intn(8); k > 0; k-- {
		s.sendFrom(e, r.Intn(s.nodes), r)
	}
	for k := r.Intn(4); k > 0; k-- {
		s.timer(e, r.Intn(s.nodes), r)
	}
}

// handle is message id's action at its receiver: nested sends, maybe a
// timer, and now and then a counter reset.
func (s *script) handle(e engine, to, id int) {
	r := s.rng("msg", id)
	for k := r.Intn(3); k > 0; k-- {
		s.sendFrom(e, to, r)
	}
	if r.Intn(6) == 0 {
		s.timer(e, to, r)
	}
	if r.Intn(25) == 0 {
		e.reset()
	}
}

// orderConfig derives a delivery model from the seed: zero and positive
// minimum latency, a zero-width range (equal-time ties), ProcPerMsg 0 and
// 0.2, and loss on or off.
func orderConfig(seed int64) Config {
	r := xrand.New(seed).Split("config")
	c := Config{Seed: seed}
	c.LatencyMin = []Time{0, 5}[r.Intn(2)]
	c.LatencyMax = c.LatencyMin + []Time{0, 3, 20}[r.Intn(3)]
	c.ProcPerMsg = []Time{0, 0.2, 1}[r.Intn(3)]
	c.LossProb = []float64{0, 0.2}[r.Intn(2)]
	return c
}

var orderKinds = []Kind{InternKind("order/a"), InternKind("order/b"), InternKind("order/c")}

// checkEventOrder runs one seeded schedule through Network and the
// reference and compares what they delivered and counted.
func checkEventOrder(t *testing.T, seed int64, cfg Config, nodes, budget int) {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	g := topology.NewGraph(nodes)
	n, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, obs := &orderTracer{}, &runStatsTap{}
	n.SetTracer(tr)
	n.SetObserver(obs)
	ns := &script{seed: seed, nodes: nodes, kinds: orderKinds, budget: budget}
	for i := 0; i < nodes; i++ {
		to := i
		n.SetHandler(topology.NodeID(i), func(_ *Network, m Message) { ns.handle(netEngine{n}, to, m.Payload.(int)) })
	}
	ns.start(netEngine{n})
	n.Run(0)

	lat, _ := New(g, cfg)
	ref := &refNet{
		cfg:     cfg,
		lat:     func(a, b int) Time { return lat.Latency(topology.NodeID(a), topology.NodeID(b)) },
		busy:    make([]bool, nodes),
		waiting: make([][]refMsg, nodes),
	}
	if cfg.LossProb > 0 {
		ref.loss = xrand.New(cfg.Seed).Split("loss")
	}
	rs := &script{seed: seed, nodes: nodes, kinds: orderKinds, budget: budget}
	ref.handler = func(m refMsg) { rs.handle(ref, m.to, m.id) }
	rs.start(ref)
	ref.run()

	if !slices.Equal(tr.got, ref.trace) {
		t.Fatalf("seed %d %+v: traces differ\nnetwork:   %s\nreference: %s", seed, cfg, traceString(tr.got), traceString(ref.trace))
	}
	if obs.last.Events != ref.events || obs.last.PeakQueue != ref.peak {
		t.Fatalf("seed %d %+v: events %d peak %d, reference events %d peak %d",
			seed, cfg, obs.last.Events, obs.last.PeakQueue, ref.events, ref.peak)
	}
	if n.TotalMessages() != ref.total || n.Delivered() != ref.delivered || n.Dropped() != ref.dropped {
		t.Fatalf("seed %d: counters total/delivered/dropped %d/%d/%d, reference %d/%d/%d", seed,
			n.TotalMessages(), n.Delivered(), n.Dropped(), ref.total, ref.delivered, ref.dropped)
	}
}

func traceString(ds []orderDelivery) string {
	if len(ds) > 12 {
		return fmt.Sprintf("%v … (%d deliveries)", ds[:12], len(ds))
	}
	return fmt.Sprint(ds)
}

// TestEventOrderMatchesReference runs seeded schedules — same-instant
// bursts, equal-time ties, zero latency, zero and non-zero processing,
// timers, nested sends, loss and mid-run counter resets — through the event
// loop and the sort-based reference, and requires the same deliveries in
// the same order with the same queueing delays, event count and peak queue.
func TestEventOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		checkEventOrder(t, seed, orderConfig(seed), 2+int(seed%5), 150)
	}
	// Every corner of the model at least once, whatever the seeds draw.
	for _, lmin := range []Time{0, 5} {
		for _, proc := range []Time{0, 0.2} {
			for _, loss := range []float64{0, 0.2} {
				cfg := Config{LatencyMin: lmin, LatencyMax: lmin, ProcPerMsg: proc, LossProb: loss, Seed: 7}
				checkEventOrder(t, 7, cfg, 3, 200)
			}
		}
	}
}

func FuzzEventOrder(f *testing.F) {
	for _, s := range []int64{1, 2, 3, 60013} {
		f.Add(s, uint8(4), uint16(120))
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, budget uint16) {
		checkEventOrder(t, seed, orderConfig(seed), 1+int(nodes%8), int(budget%400))
	})
}
