package pkc

import (
	"fmt"
	"sync"
	"testing"

	"hirep/internal/metrics"
)

// sigCounts reads the memo's two counters back out of its registry.
func sigCounts(reg *metrics.Registry) (hits, misses int64) {
	s := reg.Snapshot()
	return s["sig_memo_hits_total"], s["sig_memo_misses_total"]
}

func (m *SigMemo) size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.set)
}

func flipBit(b []byte, i int) []byte {
	c := append([]byte(nil), b...)
	c[i] ^= 1
	return c
}

// TestSigMemoHitNeverOutlivesAChange: once a triple has verified, the same
// triple is a hit, and the triple with any one bit of key, message or
// signature flipped is a miss that fails.
func TestSigMemoHitNeverOutlivesAChange(t *testing.T) {
	id, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m := NewSigMemo(reg)
	msg := []byte("hirep signed report body")
	sig := id.SignMessage(msg)
	sp := id.Sign.Public

	if !m.Verify(sp, msg, sig) {
		t.Fatal("valid triple rejected cold")
	}
	if !m.Verify(sp, msg, sig) {
		t.Fatal("valid triple rejected warm")
	}
	if hits, misses := sigCounts(reg); hits != 1 || misses != 1 {
		t.Fatalf("hits %d misses %d after cold+warm, want 1 and 1", hits, misses)
	}
	for _, mut := range []struct {
		name         string
		sp, msg, sig []byte
	}{
		{"key first byte", flipBit(sp, 0), msg, sig},
		{"key last byte", flipBit(sp, len(sp)-1), msg, sig},
		{"message first byte", sp, flipBit(msg, 0), sig},
		{"message last byte", sp, flipBit(msg, len(msg)-1), sig},
		{"message extended", sp, append(append([]byte(nil), msg...), 0), sig},
		{"signature first byte", sp, msg, flipBit(sig, 0)},
		{"signature last byte", sp, msg, flipBit(sig, len(sig)-1)},
	} {
		_, before := sigCounts(reg)
		if m.Verify(mut.sp, mut.msg, mut.sig) {
			t.Fatalf("%s flipped: accepted", mut.name)
		}
		if _, after := sigCounts(reg); after != before+1 {
			t.Fatalf("%s flipped: answered without a real check", mut.name)
		}
	}
	// Wrong-length keys and signatures are refused without touching the memo.
	hits, misses := sigCounts(reg)
	if m.Verify(sp[:31], msg, sig) || m.Verify(sp, msg, sig[:63]) || m.Verify(nil, msg, nil) {
		t.Fatal("malformed triple accepted")
	}
	if h, mi := sigCounts(reg); h != hits || mi != misses {
		t.Fatal("malformed triple was looked up")
	}
	if m.size() != 1 {
		t.Fatalf("memo holds %d entries, want only the one success", m.size())
	}
}

// TestSigMemoNeverStoresFailures: the same forged triple is re-examined on
// every presentation.
func TestSigMemoNeverStoresFailures(t *testing.T) {
	id, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	other, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	m := NewSigMemo(reg)
	msg := []byte("a report nobody signed")
	forged := other.SignMessage(msg) // a real signature, by the wrong key
	for i := 1; i <= 5; i++ {
		if m.Verify(id.Sign.Public, msg, forged) {
			t.Fatal("forged triple accepted")
		}
		if hits, misses := sigCounts(reg); hits != 0 || misses != int64(i) {
			t.Fatalf("presentation %d: hits %d misses %d", i, hits, misses)
		}
	}
	if m.size() != 0 {
		t.Fatalf("memo stored %d failures", m.size())
	}
}

// TestSigMemoCapacityBound: ten times the capacity of distinct valid triples
// never grows the table past it, and the oldest is gone.
func TestSigMemoCapacityBound(t *testing.T) {
	id, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	const capacity = 48
	m := newSigMemo(reg, capacity)
	msgOf := func(i int) []byte { return []byte(fmt.Sprintf("report %d", i)) }
	first := id.SignMessage(msgOf(0))
	last := id.SignMessage(msgOf(10*capacity - 1))
	for i := 0; i < 10*capacity; i++ {
		if !m.Verify(id.Sign.Public, msgOf(i), id.SignMessage(msgOf(i))) {
			t.Fatalf("valid triple %d rejected", i)
		}
		if m.size() > capacity {
			t.Fatalf("after %d distinct triples the memo holds %d, capacity %d", i+1, m.size(), capacity)
		}
	}
	if m.size() != capacity {
		t.Fatalf("full memo holds %d, want %d", m.size(), capacity)
	}
	hits, misses := sigCounts(reg)
	if !m.Verify(id.Sign.Public, msgOf(10*capacity-1), last) {
		t.Fatal("newest triple rejected")
	}
	if h, _ := sigCounts(reg); h != hits+1 {
		t.Fatal("newest triple was not a hit")
	}
	if !m.Verify(id.Sign.Public, msgOf(0), first) {
		t.Fatal("evicted triple rejected")
	}
	if _, mi := sigCounts(reg); mi != misses+1 {
		t.Fatal("evicted triple was answered from the memo")
	}
}

// TestSigMemoConcurrent hammers one memo with hits, forgeries and evicting
// inserts at once; run under -race.
func TestSigMemoConcurrent(t *testing.T) {
	id, err := NewIdentity(nil)
	if err != nil {
		t.Fatal(err)
	}
	const capacity, rounds, fresh = 32, 10, 4 // 8×10×4 distinct triples: ten times the capacity
	m := newSigMemo(metrics.NewRegistry(), capacity)
	hot := []byte("hot report")
	hotSig := id.SignMessage(hot)
	forged := flipBit(hotSig, 7)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if !m.Verify(id.Sign.Public, hot, hotSig) || m.Verify(id.Sign.Public, hot, forged) {
					t.Error("hot triple rejected or its forgery accepted")
					return
				}
				for k := 0; k < fresh; k++ {
					msg := []byte(fmt.Sprintf("report %d/%d/%d", g, i, k))
					if !m.Verify(id.Sign.Public, msg, id.SignMessage(msg)) {
						t.Errorf("fresh valid triple %s rejected", msg)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if m.size() > capacity {
		t.Fatalf("%d entries exceed capacity %d", m.size(), capacity)
	}
}
