package onion

import (
	"reflect"
	"sync"
	"testing"

	"hirep/internal/metrics"
	"hirep/internal/pkc"
)

// memoCounts reads the memo's four counters back out of its registry.
type memoCounts struct{ peelHit, peelMiss, sigHit, sigMiss int64 }

func countsOf(reg *metrics.Registry) memoCounts {
	s := reg.Snapshot()
	return memoCounts{
		s["onion_memo_peel_hits_total"], s["onion_memo_peel_misses_total"],
		s["onion_memo_verify_hits_total"], s["onion_memo_verify_misses_total"],
	}
}

func (m *Memo) sizes() (peels, sigs int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.peels.m), len(m.sigs.m)
}

func TestMemoPeelHitEqualsColdPeel(t *testing.T) {
	owner, relays, o := buildChain(t, 3, 1)
	reg := metrics.NewRegistry()
	m := NewMemo(reg)
	// Walk the whole chain twice: the first pass is all misses, the second
	// all hits, and every hop must equal what a cold Peel yields.
	for pass := 0; pass < 2; pass++ {
		blob := o.Blob
		for _, id := range append(relays, owner) {
			cold, err := Peel(id.Anon, blob)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Peel(id.Anon, blob)
			if err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
			if !reflect.DeepEqual(got, cold) {
				t.Fatalf("pass %d: memo peel %+v differs from cold peel %+v", pass, got, cold)
			}
			blob = cold.Inner
		}
	}
	if c := countsOf(reg); c.peelMiss != 4 || c.peelHit != 4 {
		t.Fatalf("peel hits/misses = %d/%d, want 4/4", c.peelHit, c.peelMiss)
	}
}

func TestMemoPeelAnyBitFlipMissesAndFails(t *testing.T) {
	_, relays, o := buildChain(t, 2, 1)
	reg := metrics.NewRegistry()
	m := NewMemo(reg)
	if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
		t.Fatal(err)
	}
	for i := range o.Blob {
		for bit := 0; bit < 8; bit++ {
			mutated := append([]byte(nil), o.Blob...)
			mutated[i] ^= 1 << bit
			if _, err := m.Peel(relays[0].Anon, mutated); err == nil {
				t.Fatalf("blob with byte %d bit %d flipped peeled", i, bit)
			}
		}
	}
	c := countsOf(reg)
	if c.peelHit != 0 || c.peelMiss != int64(1+8*len(o.Blob)) {
		t.Fatalf("tampered blobs hit the memo: hits=%d misses=%d", c.peelHit, c.peelMiss)
	}
	if peels, _ := m.sizes(); peels != 1 {
		t.Fatalf("%d peel entries after failed peels, want 1", peels)
	}
}

func TestMemoNeverStoresFailures(t *testing.T) {
	owner, relays, o := buildChain(t, 1, 1)
	stranger := ident(t)
	reg := metrics.NewRegistry()
	m := NewMemo(reg)
	for i := 0; i < 3; i++ {
		if _, err := m.Peel(stranger.Anon, o.Blob); err == nil {
			t.Fatal("wrong key peeled")
		}
		if err := m.VerifySig(o, stranger.Sign.Public); err == nil {
			t.Fatal("signature verified under a stranger's key")
		}
	}
	if peels, sigs := m.sizes(); peels != 0 || sigs != 0 {
		t.Fatalf("failures stored: %d peels, %d sigs", peels, sigs)
	}
	if c := countsOf(reg); c.peelMiss != 3 || c.sigMiss != 3 || c.peelHit != 0 || c.sigHit != 0 {
		t.Fatalf("failures were not re-examined every time: %+v", c)
	}
	// A stored success answers only its own question: the right key's entry
	// does not open the blob for the stranger, nor the owner's signature
	// verify under another key, sequence number or signature.
	if _, err := m.Peel(relays[0].Anon, o.Blob); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySig(o, owner.Sign.Public); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Peel(stranger.Anon, o.Blob); err == nil {
		t.Fatal("wrong key peeled once the right key's peel was stored")
	}
	for name, forged := range map[string]*Onion{
		"seq":  {Entry: o.Entry, Blob: o.Blob, Seq: o.Seq + 1, Sig: o.Sig},
		"sig":  {Entry: o.Entry, Blob: o.Blob, Seq: o.Seq, Sig: flipLast(o.Sig)},
		"blob": {Entry: o.Entry, Blob: flipLast(o.Blob), Seq: o.Seq, Sig: o.Sig},
	} {
		if err := m.VerifySig(forged, owner.Sign.Public); err == nil {
			t.Fatalf("onion with altered %s verified from the memo", name)
		}
	}
	if err := m.VerifySig(o, stranger.Sign.Public); err == nil {
		t.Fatal("stored signature verified under another key")
	}
	if err := m.VerifySig(o, owner.Sign.Public); err != nil {
		t.Fatal(err)
	}
	if c := countsOf(reg); c.sigHit != 1 {
		t.Fatalf("genuine onion re-verified: %d verify hits, want 1", c.sigHit)
	}
}

func flipLast(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 1
	return out
}

func TestMemoCapacityBound(t *testing.T) {
	owner, relay := ident(t), ident(t)
	reg := metrics.NewRegistry()
	const capacity = 48
	m := newMemo(reg, capacity)
	target := Relay{Addr: "relay", AP: relay.Anon.Public}
	var first *Onion
	for i := 0; i < 10*capacity; i++ {
		o, err := BuildExit(owner, target, uint64(i), nil)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = o
		}
		if _, err := m.Peel(relay.Anon, o.Blob); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifySig(o, owner.Sign.Public); err != nil {
			t.Fatal(err)
		}
		if peels, sigs := m.sizes(); peels > capacity || sigs > capacity {
			t.Fatalf("after %d distinct onions: %d peels, %d sigs, capacity %d", i+1, peels, sigs, capacity)
		}
	}
	if peels, sigs := m.sizes(); peels != capacity || sigs != capacity {
		t.Fatalf("full memo holds %d peels, %d sigs, want %d", peels, sigs, capacity)
	}
	// The flood evicted the first onion; it still peels and verifies, cold.
	before := countsOf(reg)
	if _, err := m.Peel(relay.Anon, first.Blob); err != nil {
		t.Fatal(err)
	}
	if err := m.VerifySig(first, owner.Sign.Public); err != nil {
		t.Fatal(err)
	}
	if c := countsOf(reg); c.peelMiss != before.peelMiss+1 || c.sigMiss != before.sigMiss+1 {
		t.Fatal("evicted entry was answered from the memo")
	}
}

func TestMemoSkipsOversizedBlobs(t *testing.T) {
	relay := ident(t)
	m := NewMemo(metrics.NewRegistry())
	blob, err := pkc.Seal(relay.Anon.Public, encodeLayer("next", make([]byte, maxMemoBlob)), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if res, err := m.Peel(relay.Anon, blob); err != nil || res.Next != "next" {
			t.Fatalf("oversized blob: %+v, %v", res, err)
		}
	}
	if peels, _ := m.sizes(); peels != 0 {
		t.Fatalf("oversized blob stored (%d entries)", peels)
	}
}

// TestMemoConcurrent hammers one memo with hits, misses, failures and
// evictions at once; run under -race.
func TestMemoConcurrent(t *testing.T) {
	owner, relay, stranger := ident(t), ident(t), ident(t)
	target := Relay{Addr: "relay", AP: relay.Anon.Public}
	hot, err := BuildExit(owner, target, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, rounds = 32, 40 // 8×40 distinct onions: ten times the capacity
	m := newMemo(metrics.NewRegistry(), capacity)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if res, err := m.Peel(relay.Anon, hot.Blob); err != nil || !res.Exit {
					t.Errorf("hot peel: %+v, %v", res, err)
					return
				}
				if err := m.VerifySig(hot, owner.Sign.Public); err != nil {
					t.Errorf("hot verify: %v", err)
					return
				}
				if _, err := m.Peel(stranger.Anon, hot.Blob); err == nil {
					t.Error("stranger peeled the hot blob")
					return
				}
				// Distinct valid onions from every goroutine: together they
				// overflow the capacity and force evictions under contention.
				o, err := BuildExit(owner, target, uint64(g*rounds+i+2), nil)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := m.Peel(relay.Anon, o.Blob); err != nil {
					t.Error(err)
					return
				}
				if err := m.VerifySig(o, owner.Sign.Public); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if peels, sigs := m.sizes(); peels > capacity || sigs > capacity {
		t.Fatalf("%d peels, %d sigs exceed capacity %d", peels, sigs, capacity)
	}
}

var memoSink PeelResult

// BenchmarkOnionMemo prices one relay hop's peel without the memo's help
// (cold: the X25519 + AES-GCM of Peel) and with it (hit: one map lookup).
// verify.sh gates hit at no more than a tenth of cold.
func BenchmarkOnionMemo(b *testing.B) {
	owner, relay := ident(b), ident(b)
	o, err := Build(owner, "owner", []Relay{{Addr: "127.0.0.1:40000", AP: relay.Anon.Public}}, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if memoSink, err = Peel(relay.Anon, o.Blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hit", func(b *testing.B) {
		m := NewMemo(metrics.NewRegistry())
		if _, err := m.Peel(relay.Anon, o.Blob); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if memoSink, err = m.Peel(relay.Anon, o.Blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
