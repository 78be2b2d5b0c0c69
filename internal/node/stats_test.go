package node

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"hirep/internal/metrics"
	"hirep/internal/pkc"
)

// metric reads the counter or gauge registered under name in n's registry,
// failing the test if no such name is registered.
func metric(t testing.TB, n *Node, name string) int64 {
	t.Helper()
	v, ok := n.Metrics().Snapshot()[name]
	if !ok {
		t.Fatalf("no metric named %q", name)
	}
	return v
}

// TestCountersAreTheOnlyStore runs one report batch and one §3.6
// transaction on a loopback fleet, then checks that the registry and the
// Stats view read the same counters: node_report_batches_total counts the
// batches, the Stats fields equal their registry names, and FramesIn is the
// sum of the per-type frame counters. It also binds the counters to a fresh
// registry and checks that every field has a name of its own.
func TestCountersAreTheOnlyStore(t *testing.T) {
	fl, err := StartFleet(FleetConfig{Agents: 3, Relays: 2, Peers: 1,
		Opts: Options{Timeout: 5 * time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	peer := fl.Peers[0]
	infos, err := fl.AgentInfos()
	if err != nil {
		t.Fatal(err)
	}
	book, err := fl.Book(infos, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	replyOnion, err := fl.ReplyOnion(peer)
	if err != nil {
		t.Fatal(err)
	}
	subject, _ := pkc.NewIdentity(nil)
	const batched = 4
	reports := make([]BatchReport, batched)
	for i := range reports {
		reports[i] = BatchReport{Subject: subject.ID, Positive: true}
	}
	if _, err := peer.ReportBatch(infos[0], reports, replyOnion); err != nil {
		t.Fatal(err)
	}
	_, perAgent, err := peer.EvaluateSubject(book, subject.ID, replyOnion)
	if err != nil {
		t.Fatal(err)
	}
	peer.CompleteTransaction(book, subject.ID, true, perAgent)
	// No agent has acked a batch through the delivery loop yet, so each
	// transaction report is first contact: it goes through the outbox as one
	// acked batch per agent. Wait until the outbox has drained.
	waitFor(t, func() bool {
		if peer.OutboxDepth() != 0 {
			return false
		}
		for i, a := range fl.Agents {
			want := int64(1)
			if i == 0 {
				want += batched
			}
			if a.Stats().ReportsStored != want {
				return false
			}
		}
		return true
	})

	all := append(append(append([]*Node(nil), fl.Agents...), fl.Relays...), fl.Peers...)
	var batches, stored, served, forwarded int64
	for _, nd := range all {
		s := nd.Stats()
		for name, got := range map[string]int64{
			"node_reports_stored_total":   s.ReportsStored,
			"node_trust_served_total":     s.TrustServed,
			"node_onions_forwarded_total": s.OnionsForwarded,
		} {
			if want := metric(t, nd, name); got != want {
				t.Errorf("%s: Stats reads %d, the registry %d", name, got, want)
			}
		}
		// FramesIn must equal the node_frames_in_* sum. These are two reads
		// of live counters, so retry until no frame lands in between.
		waitFor(t, func() bool {
			framesIn, frames := nd.Stats().FramesIn, int64(0)
			for name, v := range nd.Metrics().Snapshot() {
				if strings.HasPrefix(name, "node_frames_in_") {
					frames += v
				}
			}
			return framesIn == frames
		})
		batches += metric(t, nd, "node_report_batches_total")
		stored += s.ReportsStored
		served += s.TrustServed
		forwarded += s.OnionsForwarded
	}
	if want := 1 + int64(len(fl.Agents)); batches != want {
		t.Errorf("node_report_batches_total sums to %d over the fleet, want %d", batches, want)
	}
	if stored != batched+3 || served != 3 || forwarded == 0 {
		t.Errorf("stored=%d served=%d forwarded=%d, want %d/3/>0", stored, served, forwarded, batched+3)
	}

	reg := metrics.NewRegistry()
	var c counters
	c.bind(reg)
	owner := make(map[uintptr]string)
	v := reflect.ValueOf(c)
	for i := 0; i < v.NumField(); i++ {
		f, field := v.Field(i), v.Type().Field(i).Name
		elems := []reflect.Value{f}
		if f.Kind() == reflect.Array {
			elems = elems[:0]
			for j := 0; j < f.Len(); j++ {
				elems = append(elems, f.Index(j))
			}
		}
		for j, e := range elems {
			if e.IsNil() {
				if field != "frames" || j != 0 {
					t.Errorf("counters.%s[%d] is not bound", field, j)
				}
				continue
			}
			if prev, dup := owner[e.Pointer()]; dup {
				t.Errorf("counters.%s and counters.%s are bound to one name", prev, field)
			}
			owner[e.Pointer()] = field
		}
	}
	if n := len(reg.Snapshot()); n != len(owner) {
		t.Errorf("bind registered %d names for %d counters", n, len(owner))
	}
}
