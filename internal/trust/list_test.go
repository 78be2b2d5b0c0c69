package trust

import (
	"slices"
	"testing"

	"hirep/internal/xrand"
)

func newTestList(t testing.TB, size int, alpha, threshold float64) *List[int, string] {
	t.Helper()
	l, err := NewList[int, string](size, alpha, threshold)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func ids(es []Entry[int, string]) []int {
	out := make([]int, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func TestNewListValidation(t *testing.T) {
	for _, c := range []struct {
		size             int
		alpha, threshold float64
	}{{0, 0.3, 0.4}, {5, 0, 0.4}, {5, 1, 0.4}, {5, 0.3, -0.1}, {5, 0.3, 1}} {
		if _, err := NewList[int, string](c.size, c.alpha, c.threshold); err == nil {
			t.Errorf("NewList(%d, %v, %v) accepted", c.size, c.alpha, c.threshold)
		}
	}
}

func TestListAddRemove(t *testing.T) {
	l := newTestList(t, 5, 0.5, 0.4)
	if !l.Add(1, "a") || l.Add(1, "a") || !l.Add(2, "b") {
		t.Fatal("add a new agent, refuse a duplicate")
	}
	if e := l.Find(1); e == nil || e.Data != "a" || e.Expertise.Value() != 1 {
		t.Fatalf("entry %+v, want payload a at expertise 1", e)
	}
	if left, gone, ok := l.Demote(2); !ok || gone || left != 0 {
		t.Fatalf("Demote(2) = %v, %v, %v: want backed up, nothing gone", left, gone, ok)
	}
	if l.Find(2) != nil || !slices.Equal(ids(l.Backups()), []int{2}) {
		t.Fatal("a demoted agent must move to the backup cache")
	}
	if l.Add(2, "b") {
		t.Fatal("a backed-up agent was added again")
	}
	if _, _, ok := l.Demote(2); ok {
		t.Fatal("demoted an agent that is not in the list")
	}
	if l.Record(1, false) || !l.Record(1, false) {
		t.Fatal("1 → 0.5 → 0.25 must ban at threshold 0.4 on the second miss")
	}
	if l.Find(1) != nil || len(l.Entries()) != 0 || !slices.Equal(ids(l.Backups()), []int{2}) {
		t.Fatal("a banned agent must leave the list without a backup")
	}
}

func TestListBackupsMostRecentFirst(t *testing.T) {
	l := newTestList(t, 2, 0.3, 0.4)
	l.Add(1, "")
	l.Add(2, "")
	l.Demote(1)
	l.Demote(2)
	l.Add(3, "")
	// Cap 2, most recent first: [3, 2]; 1 is pushed off and leaves the list.
	if left, gone, _ := l.Demote(3); !gone || left != 1 {
		t.Fatalf("Demote(3) pushed off %v (gone %v), want 1", left, gone)
	}
	if got := ids(l.Backups()); !slices.Equal(got, []int{3, 2}) {
		t.Fatalf("backups %v, want [3 2]", got)
	}
	if !l.Add(1, "") {
		t.Fatal("an agent pushed off the cache could not be added again")
	}
}

func TestListZeroExpertiseNotBackedUp(t *testing.T) {
	l := newTestList(t, 5, 0.5, 0)
	l.Add(1, "")
	for i := 0; i < 64; i++ {
		l.Record(1, false)
	}
	if e := l.Find(1); e == nil || e.Expertise.Value() > BackupFloor {
		t.Fatalf("entry %+v: want expertise at or below the backup floor", e)
	}
	// §3.4.3: only positive-accuracy agents go to backup.
	if left, gone, ok := l.Demote(1); !ok || !gone || left != 1 {
		t.Fatalf("Demote(1) = %v, %v, %v: want 1 gone", left, gone, ok)
	}
	if len(l.Backups()) != 0 {
		t.Fatal("zero-expertise agent backed up")
	}
	if !l.Add(1, "") {
		t.Fatal("a dropped (not banned) agent could not be added again")
	}
}

func TestListRestore(t *testing.T) {
	l := newTestList(t, 2, 0.5, 0.4)
	l.Add(1, "")
	l.Record(1, false)
	l.Demote(1)
	if !l.Restore(1) {
		t.Fatal("restore failed")
	}
	if e := l.Find(1); e == nil || e.Expertise.Value() != 0.5 || len(l.Backups()) != 0 {
		t.Fatal("restore must move the backup, with its expertise, into the list")
	}
	if l.Restore(1) || l.Restore(99) {
		t.Fatal("restored an agent that is not a backup")
	}
	l.Demote(1)
	l.Add(2, "")
	l.Add(3, "")
	if l.Restore(1) || !slices.Equal(ids(l.Backups()), []int{1}) {
		t.Fatal("a full list accepted a restore")
	}
}

func TestListCapacity(t *testing.T) {
	l := newTestList(t, 2, 0.3, 0.4)
	if !l.Add(1, "") || !l.Add(2, "") || l.Add(3, "") {
		t.Fatal("a list of 2 must take two agents and refuse a third")
	}
	if !l.AddBackup(3, "") || !l.AddBackup(4, "") || l.AddBackup(5, "") {
		t.Fatal("a cache of 2 must take two standbys and refuse a third")
	}
	if l.AddBackup(1, "") || l.AddBackup(3, "") {
		t.Fatal("a held agent was taken as a standby")
	}
	if got := ids(l.Backups()); !slices.Equal(got, []int{3, 4}) {
		t.Fatalf("backups %v, want standbys in the order added", got)
	}
}

func TestListNoReAddAfterBan(t *testing.T) {
	l := newTestList(t, 3, 0.5, 0.4)
	l.Add(1, "")
	l.Record(1, false)
	if !l.Record(1, false) {
		t.Fatal("not banned below the threshold")
	}
	if l.Add(1, "") || l.AddBackup(1, "") || l.Record(1, true) {
		t.Fatal("a banned agent came back")
	}
}

// listModel is the reference FuzzListOps checks List against: the §3.4.3
// rules written out over plain slices and maps.
type listModel struct {
	size             int
	alpha, threshold float64
	entries, backups []int
	expertise        map[int]float64
	banned           map[int]bool
}

func (m *listModel) held(id int) bool {
	return m.banned[id] || slices.Contains(m.entries, id) || slices.Contains(m.backups, id)
}

func (m *listModel) add(id int, backup bool) bool {
	to := &m.entries
	if backup {
		to = &m.backups
	}
	if len(*to) >= m.size || m.held(id) {
		return false
	}
	*to = append(*to, id)
	m.expertise[id] = 1
	return true
}

func (m *listModel) record(id int, consistent bool) bool {
	i := slices.Index(m.entries, id)
	if i < 0 {
		return false
	}
	ac := 0.0
	if consistent {
		ac = 1
	}
	m.expertise[id] = m.alpha*ac + (1-m.alpha)*m.expertise[id]
	if m.expertise[id] >= m.threshold {
		return false
	}
	m.entries = slices.Delete(m.entries, i, i+1)
	delete(m.expertise, id)
	m.banned[id] = true
	return true
}

func (m *listModel) demote(id int) (left int, gone, ok bool) {
	i := slices.Index(m.entries, id)
	if i < 0 {
		return 0, false, false
	}
	m.entries = slices.Delete(m.entries, i, i+1)
	if m.expertise[id] <= BackupFloor {
		delete(m.expertise, id)
		return id, true, true
	}
	m.backups = append([]int{id}, m.backups...)
	if len(m.backups) > m.size {
		left = m.backups[m.size]
		m.backups = m.backups[:m.size]
		delete(m.expertise, left)
		return left, true, true
	}
	return 0, false, true
}

func (m *listModel) restore(id int) bool {
	i := slices.Index(m.backups, id)
	if i < 0 || len(m.entries) >= m.size {
		return false
	}
	m.backups = slices.Delete(m.backups, i, i+1)
	m.entries = append(m.entries, id)
	return true
}

// FuzzListOps runs a byte string as a sequence of list operations on up to 8
// agents, against listModel. After every operation the list must return
// what the model returns and hold what it holds, in the same order and with
// the same expertise; no agent may be held twice across the entries, the
// backups and the bans; and neither the entries nor the backups may exceed
// the list's size. The first byte picks the size (1–4) and whether the
// threshold is 0, which lets expertise decay to BackupFloor, or 0.3.
func FuzzListOps(f *testing.F) {
	f.Add([]byte{0x03, 0, 1, 0, 2, 5, 1, 1, 1, 0, 3, 5, 1})
	f.Add([]byte{0x00, 0, 1, 4, 1, 4, 1, 4, 1, 5, 1, 0, 1, 1, 1})
	f.Add([]byte{0x81, 0, 1, 0, 2, 3, 1, 3, 1, 3, 1, 3, 1, 2, 1, 5, 1})
	// A long seeded sequence, so plain `go test` walks a thousand edits.
	rng := xrand.New(2006)
	long := make([]byte, 2001)
	for i := range long {
		long[i] = byte(rng.Intn(256))
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		threshold := 0.3
		if ops[0]&0x80 != 0 {
			threshold = 0
		}
		m := &listModel{size: int(ops[0]&3) + 1, alpha: 0.5, threshold: threshold, expertise: map[int]float64{}, banned: map[int]bool{}}
		l := newTestList(t, m.size, m.alpha, m.threshold)
		for step := 1; step+1 < len(ops); step += 2 {
			id := int(ops[step+1] % 8)
			switch op := ops[step] % 6; op {
			case 0, 1:
				backup := op == 1
				add := l.Add
				if backup {
					add = l.AddBackup
				}
				if got, want := add(id, ""), m.add(id, backup); got != want {
					t.Fatalf("step %d: add(%d, backup %v) = %v, want %v", step, id, backup, got, want)
				}
			case 2, 3:
				if got, want := l.Record(id, op == 2), m.record(id, op == 2); got != want {
					t.Fatalf("step %d: Record(%d, %v) = %v, want %v", step, id, op == 2, got, want)
				}
			case 4:
				left, gone, ok := l.Demote(id)
				wl, wg, wok := m.demote(id)
				if ok != wok || gone != wg || (gone && left != wl) {
					t.Fatalf("step %d: Demote(%d) = %v, %v, %v, want %v, %v, %v", step, id, left, gone, ok, wl, wg, wok)
				}
			case 5:
				if got, want := l.Restore(id), m.restore(id); got != want {
					t.Fatalf("step %d: Restore(%d) = %v, want %v", step, id, got, want)
				}
			}
			checkList(t, step, l, m)
		}
	})
}

func checkList(t *testing.T, step int, l *List[int, string], m *listModel) {
	t.Helper()
	if !slices.Equal(ids(l.Entries()), m.entries) || !slices.Equal(ids(l.Backups()), m.backups) {
		t.Fatalf("step %d: entries %v backups %v, model %v %v", step, ids(l.Entries()), ids(l.Backups()), m.entries, m.backups)
	}
	if len(l.Entries()) > m.size || len(l.Backups()) > m.size {
		t.Fatalf("step %d: %d entries and %d backups exceed size %d", step, len(l.Entries()), len(l.Backups()), m.size)
	}
	held := map[int]bool{}
	for id := range l.banned {
		held[id] = true
	}
	for _, e := range append(slices.Clone(l.Entries()), l.Backups()...) {
		if held[e.ID] {
			t.Fatalf("step %d: agent %d held twice (entries %v, backups %v, banned %v)", step, e.ID, ids(l.Entries()), ids(l.Backups()), l.banned)
		}
		held[e.ID] = true
		if e.Expertise.Value() != m.expertise[e.ID] {
			t.Fatalf("step %d: agent %d expertise %v, model %v", step, e.ID, e.Expertise.Value(), m.expertise[e.ID])
		}
	}
	if len(l.banned) != len(m.banned) {
		t.Fatalf("step %d: %d banned, model %d", step, len(l.banned), len(m.banned))
	}
}
