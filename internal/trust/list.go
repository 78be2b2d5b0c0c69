package trust

import (
	"fmt"
	"math"
	"slices"
)

// List is a peer's trusted-agent list with the backup-agent cache of
// §3.4.3, the one implementation of its rules that the simulator and the
// live node share:
//
//   - Add admits an agent at expertise 1 while the list has room.
//   - Record folds one transaction's consistency into an agent's expertise
//     and bans the agent once it falls below the removal threshold; a banned
//     agent never comes back (§4.2.2).
//   - Demote takes a silent agent out of the list: into the front of the
//     backup cache (most recently demoted first) when its expertise is above
//     BackupFloor, else out of the list for good.
//   - Restore moves a backup back into the list, with the expertise it was
//     demoted with.
//
// An ID is in at most one of the entries, the backups and the bans: Add and
// AddBackup refuse an ID held in any of them, and a full list refuses Add and
// Restore. Each entry carries a payload D: the simulator keeps the agent's
// published onion path there, the live node its descriptor.
//
// Entries are stored by value: the slices Entries and Backups return, and a
// pointer Find returns, are read-only and valid until the next edit.
type List[ID comparable, D any] struct {
	entries   []Entry[ID, D]
	backups   []Entry[ID, D]
	banned    map[ID]struct{} // allocated on the first ban
	size      int             // the most entries, and the most backups
	fresh     Expertise       // a new entry's expertise
	threshold float64
}

// Entry is one agent of a List.
type Entry[ID comparable, D any] struct {
	ID        ID
	Data      D
	Expertise Expertise
}

// NewList returns an empty list that holds up to size agents and as many
// backups, updates expertise with smoothing factor alpha, and bans an agent
// whose expertise falls below threshold.
func NewList[ID comparable, D any](size int, alpha, threshold float64) (*List[ID, D], error) {
	if size < 1 {
		return nil, fmt.Errorf("trust: list size must be >= 1, got %d", size)
	}
	fresh, err := NewExpertise(alpha)
	if err != nil {
		return nil, err
	}
	if threshold < 0 || threshold >= 1 || math.IsNaN(threshold) {
		return nil, fmt.Errorf("trust: removal threshold must be in [0,1), got %v", threshold)
	}
	return &List[ID, D]{entries: make([]Entry[ID, D], 0, size), size: size, fresh: *fresh, threshold: threshold}, nil
}

// Entries returns the trusted agents in the order they joined the list.
func (l *List[ID, D]) Entries() []Entry[ID, D] { return l.entries }

// Backups returns the backup cache, most recently demoted first.
func (l *List[ID, D]) Backups() []Entry[ID, D] { return l.backups }

// Find returns the trusted agent id's entry, or nil.
func (l *List[ID, D]) Find(id ID) *Entry[ID, D] {
	if i := index(l.entries, id); i >= 0 {
		return &l.entries[i]
	}
	return nil
}

// Add appends id as a trusted agent with expertise 1 and reports whether it
// did. A full list, and an ID already held as an entry, a backup or a ban,
// are refused: a backup comes back through Restore.
func (l *List[ID, D]) Add(id ID, d D) bool {
	if len(l.entries) >= l.size || l.held(id) {
		return false
	}
	l.entries = append(l.entries, Entry[ID, D]{ID: id, Data: d, Expertise: l.fresh})
	return true
}

// AddBackup appends id with expertise 1 to the back of the backup cache, a
// standby that does not take a trusted agent's slot, and reports whether it
// did. A full cache, and an ID already held, are refused.
func (l *List[ID, D]) AddBackup(id ID, d D) bool {
	if len(l.backups) >= l.size || l.held(id) {
		return false
	}
	l.backups = append(l.backups, Entry[ID, D]{ID: id, Data: d, Expertise: l.fresh})
	return true
}

// Record folds one transaction's observation into trusted agent id's
// expertise: consistent is whether its evaluation agreed with the outcome.
// It reports whether this took the agent below the threshold, which removes
// and bans it.
func (l *List[ID, D]) Record(id ID, consistent bool) bool {
	i := index(l.entries, id)
	if i < 0 {
		return false
	}
	l.entries[i].Expertise.Update(consistent)
	if l.entries[i].Expertise.Value() >= l.threshold {
		return false
	}
	l.entries = slices.Delete(l.entries, i, i+1)
	if l.banned == nil {
		l.banned = make(map[ID]struct{})
	}
	l.banned[id] = struct{}{}
	return true
}

// Demote takes trusted agent id out of the list. It reports whether id was
// one, and which ID, if any, left the list entirely (gone): id itself when
// its expertise is at or below BackupFloor, or else the least recently
// demoted backup when the cache was full.
func (l *List[ID, D]) Demote(id ID) (left ID, gone, ok bool) {
	i := index(l.entries, id)
	if i < 0 {
		return left, false, false
	}
	e := l.entries[i]
	l.entries = slices.Delete(l.entries, i, i+1)
	if e.Expertise.Value() <= BackupFloor {
		return id, true, true
	}
	if len(l.backups) == l.size {
		left, gone = l.backups[l.size-1].ID, true
	} else {
		l.backups = append(l.backups, Entry[ID, D]{})
	}
	copy(l.backups[1:], l.backups)
	l.backups[0] = e
	return left, gone, true
}

// Restore moves backup id to the end of the trusted list, keeping its
// expertise, and reports whether it did: a full list, or an ID not in the
// backup cache, is refused.
func (l *List[ID, D]) Restore(id ID) bool {
	i := index(l.backups, id)
	if i < 0 || len(l.entries) >= l.size {
		return false
	}
	l.entries = append(l.entries, l.backups[i])
	l.backups = slices.Delete(l.backups, i, i+1)
	return true
}

// held reports whether id is a trusted agent, a backup or banned.
func (l *List[ID, D]) held(id ID) bool {
	_, banned := l.banned[id]
	return banned || index(l.entries, id) >= 0 || index(l.backups, id) >= 0
}

// index returns the position of id in es, or -1.
func index[ID comparable, D any](es []Entry[ID, D], id ID) int {
	for i := range es {
		if es[i].ID == id {
			return i
		}
	}
	return -1
}
