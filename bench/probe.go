package main

import (
	"bytes"
	"crypto/ed25519"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"time"

	"hirep"
	"hirep/internal/agentdir"
	"hirep/internal/onion"
	"hirep/internal/pkc"
	"hirep/internal/proof"
	"hirep/internal/repstore"
	"hirep/internal/resilience"
	"hirep/internal/transport"
	"hirep/internal/wire"
	"hirep/internal/xrand"
)

// The layer-probe pass of a traced run: it calls the public functions of each
// layer directly, on payloads of the sizes the workload itself moves, and
// records one span per probe. These unit costs are what the tx-loop budget
// line multiplies by the calls per transaction.

// probeSpec carries the workload's own sizes into the probes.
type probeSpec struct {
	evidence int // signed wires behind one subject's bundle
	batch    int // reports per submitted batch
	relays   int // relays in the agents' onions
	div      int // divides every probe's call count (1 for a measured run)
}

// timeOp runs fn rounds×n times and returns the median over rounds of the
// mean time per call, in ns.
func timeOp(rounds, n int, fn func()) float64 {
	per := make([]float64, rounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// allocsPer is the mean number of heap allocations one call of fn makes.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// prober runs probes under one parent span.
type prober struct {
	out    sink
	tr     *tracer
	parent int64
	div    int
}

// probe times fn (rounds × n calls), stores the per-call cost under name in
// the unit its suffix names, and records the probe as a span.
func (p *prober) probe(name string, rounds, n int, fn func()) float64 {
	n = max(n/p.div, 1)
	t0 := time.Now()
	ns := timeOp(rounds, n, fn)
	p.tr.add(0, p.parent, "probe."+name, t0, time.Now())
	v := ns
	switch {
	case strings.HasSuffix(name, "_us"):
		v = ns / 1e3
	case strings.HasSuffix(name, "_ms"):
		v = ns / 1e6
	}
	p.out.set(name, v, rounds*n)
	return v
}

// probeLive measures the live path's layers.
func probeLive(out sink, tr *tracer, spec probeSpec, tmp string) error {
	p := &prober{out: out, tr: tr, parent: tr.id(), div: spec.div}
	start := time.Now()
	defer func() { tr.add(p.parent, 0, "probe", start, time.Now()) }()

	a, err := pkc.NewIdentity(nil)
	if err != nil {
		return err
	}
	b, err := pkc.NewIdentity(nil)
	if err != nil {
		return err
	}

	// A trust request as the node builds it: keys, subject, nonce and a
	// one-relay reply onion, sealed to the agent.
	route := make([]onion.Relay, spec.relays)
	for i := range route {
		route[i] = onion.Relay{Addr: "127.0.0.1:40000", AP: b.Anon.Public}
	}
	reply, err := onion.Build(a, "127.0.0.1:40001", route[:1], 1, nil)
	if err != nil {
		return err
	}
	var e wire.Encoder
	e.Bytes(a.Sign.Public).Bytes(a.Anon.Public.Bytes()).Bytes(a.ID[:]).Bytes(make([]byte, pkc.NonceSize))
	e.String(reply.Entry).Bytes(reply.Blob).U64(reply.Seq).Bytes(reply.Sig)
	request := e.Encode()

	// pkc.
	sealed, err := pkc.Seal(b.Anon.Public, request, nil)
	if err != nil {
		return err
	}
	p.probe("pkc.seal_us", 5, 200, func() { _, _ = pkc.Seal(b.Anon.Public, request, nil) })
	out.set("pkc.allocs_per_seal", allocsPer(500, func() { _, _ = pkc.Seal(b.Anon.Public, request, nil) }), 500)
	p.probe("pkc.open_us", 5, 200, func() { _, _ = b.Anon.Open(sealed) })
	sig := a.SignMessage(request)
	p.probe("pkc.sign_us", 5, 200, func() { _ = a.SignMessage(request) })
	p.probe("pkc.verify_us", 5, 200, func() { _ = pkc.Verify(a.Sign.Public, request, sig) })
	const nb = 256
	keys, msgs, sigs := make([]ed25519.PublicKey, nb), make([][]byte, nb), make([][]byte, nb)
	for i := range keys {
		keys[i], msgs[i], sigs[i] = a.Sign.Public, request, sig
	}
	ns := timeOp(5, 4, func() { _ = pkc.VerifyBatch(keys, msgs, sigs) })
	out.set("pkc.verify_batch_us_per_sig", ns/1e3/nb, 20*nb)

	// onion: build over the workload's route length, peel the outer layer.
	agentOnion, err := onion.Build(a, "127.0.0.1:40001", route, 1, nil)
	if err != nil {
		return err
	}
	p.probe("onion.build_us", 5, 100, func() { _, _ = onion.Build(a, "127.0.0.1:40001", route, 1, nil) })
	p.probe("onion.peel_us", 5, 200, func() { _, _ = onion.Peel(b.Anon, agentOnion.Blob) })
	out.set("onion.bytes_per_hop", float64(len(agentOnion.Blob))/float64(spec.relays+1), 1)

	// wire: one frame written and read back through memory.
	var e2 wire.Encoder
	e2.Bytes(agentOnion.Blob).U64(uint64(wire.TTrustReq)).Bytes(sealed)
	frame := e2.Encode()
	var buf bytes.Buffer
	roundtrip := func() {
		buf.Reset()
		_ = wire.WriteFrame(&buf, wire.TOnion, frame)
		_, _, _ = wire.ReadFrame(&buf)
	}
	p.probe("wire.frame_roundtrip_ns", 5, 2000, roundtrip)
	out.set("wire.allocs_per_frame", allocsPer(2000, roundtrip), 2000)

	// transport: the same frame echoed over loopback, pooled and dial-per-frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go transport.ServeConn(nc, transport.ServerConfig{}, func(typ wire.MsgType, payload []byte, r transport.Responder) {
				_ = r.Respond(wire.TPong, payload)
			})
		}
	}()
	pool := transport.New(transport.Options{})
	addr := ln.Addr().String()
	var rtErr error
	p.probe("transport.rtt_pooled_us", 5, 400, func() {
		if _, _, err := pool.RoundTrip(addr, wire.TPing, frame, opTimeout); err != nil {
			rtErr = err
		}
	})
	dial := resilience.NetDialer("tcp")
	p.probe("transport.rtt_direct_us", 5, 60, func() {
		if _, _, err := transport.DirectRoundTrip(dial, addr, wire.TPing, frame, opTimeout); err != nil {
			rtErr = err
		}
	})
	_ = pool.Close()
	_ = ln.Close()
	<-served
	if rtErr != nil {
		return fmt.Errorf("transport probe: %w", rtErr)
	}

	// agentdir over an in-memory store: verify + replay check + append.
	subject := genSubjects(xrand.New(1), 1)[0]
	signed := func(n int) [][]byte {
		ws := make([][]byte, n)
		for i := range ws {
			nonce, _ := pkc.NewNonce(nil)
			ws[i] = agentdir.SignReport(a, subject, i%4 != 0, nonce)
		}
		return ws
	}
	ag := agentdir.New(b, 1<<16)
	if err := ag.RegisterKey(a.ID, a.Sign.Public); err != nil {
		return err
	}
	ws, next := signed(1000), 0
	p.probe("agentdir.submit_us", 5, 200, func() { _, _ = ag.SubmitReport(a.ID, ws[next]); next++ })
	const batches = 8
	ws, next = signed(batches*spec.batch), 0
	ns = timeOp(batches, 1, func() { _, _ = ag.SubmitReportBatch(a.ID, ws[next:next+spec.batch]); next += spec.batch })
	out.set("agentdir.submit_batch_us_per_report", ns/1e3/float64(spec.batch), batches*spec.batch)
	p.probe("agentdir.trust_value_ns", 5, 2000, func() { _, _ = ag.TrustValue(subject) })

	// repstore: a fresh durable store with fsync on, and a memory store.
	dir, err := os.MkdirTemp(tmp, "probe-")
	if err != nil {
		return err
	}
	durable, err := repstore.Open(dir, repstore.Options{EvidenceCap: max(spec.evidence, 1), CompactAfter: -1})
	if err != nil {
		return err
	}
	ws, next = signed(spec.evidence+300), 0
	record := func(w []byte) repstore.Record {
		_, positive, nonce, _, _, _ := agentdir.ParseReportWire(w)
		return repstore.Record{Reporter: a.ID, Subject: subject, Positive: positive, Nonce: nonce, SP: a.Sign.Public, Wire: w}
	}
	for ; next < spec.evidence; next++ {
		if err := durable.Append(record(ws[next])); err != nil {
			return err
		}
	}
	before := durable.WALSize()
	p.probe("repstore.append_sync_us", 3, 100, func() { _ = durable.Append(record(ws[next])); next++ })
	appended := next - spec.evidence
	out.set("repstore.wal_bytes_per_report", float64(durable.WALSize()-before)/float64(appended), appended)
	mem, _ := repstore.Open("", repstore.Options{})
	rec := record(ws[0])
	p.probe("repstore.append_mem_ns", 5, 2000, func() { _ = mem.Append(rec) })
	p.probe("repstore.tally_ns", 5, 2000, func() { _, _, _ = mem.Tally(subject) })

	// proof over a subject holding exactly the workload's evidence count.
	ev, err := repstore.Open("", repstore.Options{EvidenceCap: max(spec.evidence, 1)})
	if err != nil {
		return err
	}
	for i := 0; i < spec.evidence; i++ {
		if err := ev.Append(record(ws[i])); err != nil {
			return err
		}
	}
	p.probe("repstore.subject_proof_us", 5, 200, func() { _, _, _, _, _ = ev.SubjectProof(subject) })
	bundle := proof.Assemble(ev, b, subject, 1)
	p.probe("proof.assemble_us", 5, 100, func() { _ = proof.Assemble(ev, b, subject, 1) })
	var verdict proof.Result
	p.probe("proof.verify_us", 5, 20, func() { verdict, _ = proof.Verify(bundle) })
	if verdict.Verdict != proof.Matching {
		return fmt.Errorf("proof probe: bundle verified %v (%s)", verdict.Verdict, verdict.Reason)
	}
	out.set("proof.bundle_bytes", float64(len(bundle.Encode())), 1)
	now := uint64(time.Now().Unix())
	snap := proof.SnapshotFromBundle(b, bundle, now+60)
	p.probe("proof.snapshot_verify_us", 5, 200, func() { _ = snap.Verify(now) })

	return durable.Close()
}

// probeSim measures the simulator path's layers on one n-node deployment.
func probeSim(out sink, tr *tracer, n int, seed int64, div int) error {
	p := &prober{out: out, tr: tr, parent: tr.id(), div: div}
	start := time.Now()
	defer func() { tr.add(p.parent, 0, "probe", start, time.Now()) }()

	var gerr error
	p.probe("topology.generate_ms", 5, 1, func() { _, gerr = simGraph(n, seed) })
	if gerr != nil {
		return gerr
	}
	var tb *hirep.Testbed
	total := p.probe("core.bootstrap_ms", 5, 1, func() { tb, gerr = hirep.NewTestbed(n, 0.5, hirep.DefaultConfig(), seed) })
	if gerr != nil {
		return gerr
	}
	// NewTestbed generates the topology too; bootstrap is the rest.
	out.set("core.bootstrap_ms", total-out["topology.generate_ms"].Value, 5)
	p.probe("core.tx_us", 5, 40, func() { _ = tb.System.RunRandomTransaction() })
	vt, err := hirep.NewVotingTestbed(n, 0.5, hirep.DefaultVotingConfig(), seed)
	if err != nil {
		return err
	}
	p.probe("voting.tx_us", 5, 10, func() { _ = vt.System.RunRandomTransaction() })
	return nil
}
