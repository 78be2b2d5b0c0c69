// Package gnutella implements the unstructured file-sharing substrate that
// hiREP sits on top of: a keyword file catalog and the Gnutella 0.6-style
// TTL-limited query flood with reverse-path QueryHit routing.
//
// The paper's transaction process (§3.6) starts with "the basic query
// process in a P2P system": a requestor floods a query, providers answer
// with QueryHits, and the resulting provider candidates are then vetted
// through the reputation system. This package supplies that first phase, so
// the simulation's candidate sets can come from actual searches rather than
// an oracle (see sim.Params and the filesharing example).
package gnutella

import (
	"fmt"
	"sort"
	"strings"

	"hirep/internal/simnet"
	"hirep/internal/topology"
	"hirep/internal/xrand"
)

// Message kinds (counted separately from reputation traffic; the paper's
// Figure 5 counts only trust-query messages).
const (
	KindQuery    = "gnutella/query"
	KindQueryHit = "gnutella/query-hit"
)

// Interned kind IDs for the send fast path (simnet.InternKind).
var (
	kindQueryID    = simnet.InternKind(KindQuery)
	kindQueryHitID = simnet.InternKind(KindQueryHit)
)

// File is one shared item.
type File struct {
	Name     string
	Keywords []string
}

// Catalog assigns shared files to nodes with a Zipf popularity skew, the
// standard model of file-sharing content distribution.
type Catalog struct {
	byNode  [][]File
	byTitle map[string][]topology.NodeID
	titles  []string
}

// CatalogSpec parameterizes catalog generation.
type CatalogSpec struct {
	// Titles is the number of distinct files in the system.
	Titles int
	// CopiesMean is the average number of replicas per file; popular files
	// (low Zipf rank) get proportionally more.
	CopiesMean int
	// Skew is the Zipf exponent (>1); higher = more concentrated popularity.
	Skew float64
}

// DefaultCatalogSpec returns a KaZaA-like catalog: 200 titles, 8 copies on
// average, strong popularity skew.
func DefaultCatalogSpec() CatalogSpec {
	return CatalogSpec{Titles: 200, CopiesMean: 8, Skew: 1.2}
}

// Validate checks the spec.
func (s CatalogSpec) Validate() error {
	switch {
	case s.Titles < 1:
		return fmt.Errorf("gnutella: Titles must be >= 1, got %d", s.Titles)
	case s.CopiesMean < 1:
		return fmt.Errorf("gnutella: CopiesMean must be >= 1, got %d", s.CopiesMean)
	case s.Skew <= 1:
		return fmt.Errorf("gnutella: Skew must be > 1, got %v", s.Skew)
	}
	return nil
}

// NewCatalog distributes spec.Titles files over n nodes.
func NewCatalog(n int, spec CatalogSpec, rng *xrand.RNG) (*Catalog, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Catalog{
		byNode:  make([][]File, n),
		byTitle: make(map[string][]topology.NodeID),
	}
	zipf := rng.Zipf(spec.Skew, uint64(spec.Titles-1))
	totalCopies := spec.Titles * spec.CopiesMean
	for i := 0; i < totalCopies; i++ {
		rank := int(zipf.Uint64())
		title := titleFor(rank)
		holder := topology.NodeID(rng.Intn(n))
		if c.hasTitle(holder, title) {
			continue
		}
		f := File{Name: title, Keywords: keywordsFor(rank)}
		c.byNode[holder] = append(c.byNode[holder], f)
		c.byTitle[title] = append(c.byTitle[title], holder)
	}
	// Guarantee at least one copy of each title so queries can always hit.
	for rank := 0; rank < spec.Titles; rank++ {
		title := titleFor(rank)
		if len(c.byTitle[title]) == 0 {
			holder := topology.NodeID(rng.Intn(n))
			c.byNode[holder] = append(c.byNode[holder], File{Name: title, Keywords: keywordsFor(rank)})
			c.byTitle[title] = append(c.byTitle[title], holder)
		}
	}
	for title := range c.byTitle {
		c.titles = append(c.titles, title)
	}
	sort.Strings(c.titles)
	return c, nil
}

func titleFor(rank int) string { return fmt.Sprintf("file-%04d", rank) }

func keywordsFor(rank int) []string {
	return []string{fmt.Sprintf("kw%d", rank), fmt.Sprintf("kw%d", rank%10)}
}

func (c *Catalog) hasTitle(node topology.NodeID, title string) bool {
	for _, f := range c.byNode[node] {
		if f.Name == title {
			return true
		}
	}
	return false
}

// FilesOf returns the files node shares.
func (c *Catalog) FilesOf(node topology.NodeID) []File { return c.byNode[node] }

// Holders returns all nodes sharing the exact title.
func (c *Catalog) Holders(title string) []topology.NodeID {
	return append([]topology.NodeID(nil), c.byTitle[title]...)
}

// Titles returns all distinct titles, sorted.
func (c *Catalog) Titles() []string { return c.titles }

// PopularTitle returns a title drawn by popularity rank (rank 0 = most
// popular), for workload generation.
func (c *Catalog) PopularTitle(rng *xrand.RNG, skew float64, maxRank int) string {
	if maxRank >= len(c.titles) {
		maxRank = len(c.titles) - 1
	}
	z := rng.Zipf(skew, uint64(maxRank))
	return titleFor(int(z.Uint64()))
}

// Match reports whether a file satisfies a query string (Gnutella keyword
// semantics: every query token must match the name or a keyword).
func Match(f File, query string) bool {
	for _, tok := range strings.Fields(strings.ToLower(query)) {
		if !matchToken(f, tok) {
			return false
		}
	}
	return true
}

func matchToken(f File, tok string) bool {
	if strings.Contains(strings.ToLower(f.Name), tok) {
		return true
	}
	for _, kw := range f.Keywords {
		if strings.Contains(strings.ToLower(kw), tok) {
			return true
		}
	}
	return false
}

// Hit is one provider answer to a query.
type Hit struct {
	Provider topology.NodeID
	File     File
	Hops     int // distance the query travelled before matching
}

// Search runs a TTL-limited query flood over the simulated network and
// returns the hits the requestor collected once the network is quiet. It
// drives the simulator to quiescence. ttl follows Gnutella's default of 7
// (the paper's Table 1 uses 7 for agent-list requests and 4 for trust polls).
type Search struct {
	net     *simnet.Network
	catalog *Catalog
	seen    map[uint64]map[topology.NodeID]bool
	cur     *searchState
	nextID  uint64
}

type searchState struct {
	id   uint64
	hits []Hit
}

type (
	queryPayload struct {
		id    uint64
		query string
		ttl   int
		hops  int
		path  []topology.NodeID
	}
	hitPayload struct {
		id   uint64
		hit  Hit
		path []topology.NodeID
	}
)

// NewSearch wires query handling onto net for every node. It takes over the
// nodes' handlers; compose with reputation protocols by dispatching on kind
// (see sim's combined world).
func NewSearch(net *simnet.Network, catalog *Catalog) *Search {
	s := &Search{net: net, catalog: catalog, seen: make(map[uint64]map[topology.NodeID]bool)}
	return s
}

// Handle processes one message if it belongs to the query protocol; it
// returns false for foreign kinds so callers can chain handlers.
func (s *Search) Handle(nw *simnet.Network, m simnet.Message) bool {
	switch m.KindID {
	case kindQueryID:
		s.onQuery(nw, m)
		return true
	case kindQueryHitID:
		s.onHit(nw, m)
		return true
	}
	return false
}

func (s *Search) onQuery(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(queryPayload)
	seen := s.seen[p.id]
	if seen == nil {
		seen = make(map[topology.NodeID]bool)
		s.seen[p.id] = seen
	}
	if seen[m.To] {
		return
	}
	seen[m.To] = true
	// Answer with QueryHits for matching local files, reverse-path routed.
	for _, f := range s.catalog.FilesOf(m.To) {
		if Match(f, p.query) {
			hit := Hit{Provider: m.To, File: f, Hops: p.hops}
			nw.SendKind(m.To, p.path[0], kindQueryHitID, hitPayload{id: p.id, hit: hit, path: p.path[1:]})
		}
	}
	if p.ttl <= 1 {
		return
	}
	for _, nb := range nw.Graph().Neighbors(m.To) {
		if nb == m.From {
			continue
		}
		nw.SendKind(m.To, nb, kindQueryID, queryPayload{
			id: p.id, query: p.query, ttl: p.ttl - 1, hops: p.hops + 1,
			path: append([]topology.NodeID{m.To}, p.path...),
		})
	}
}

func (s *Search) onHit(nw *simnet.Network, m simnet.Message) {
	p := m.Payload.(hitPayload)
	if len(p.path) > 0 {
		nw.SendKind(m.To, p.path[0], kindQueryHitID, hitPayload{id: p.id, hit: p.hit, path: p.path[1:]})
		return
	}
	if s.cur == nil || s.cur.id != p.id {
		return
	}
	s.cur.hits = append(s.cur.hits, p.hit)
}

// Run floods query from requestor with ttl and returns the collected hits.
func (s *Search) Run(requestor topology.NodeID, query string, ttl int) []Hit {
	s.nextID++
	st := &searchState{id: s.nextID}
	s.cur = st
	s.seen[st.id] = map[topology.NodeID]bool{requestor: true}
	// The requestor answers its own query locally without messages.
	for _, f := range s.catalog.FilesOf(requestor) {
		if Match(f, query) {
			st.hits = append(st.hits, Hit{Provider: requestor, File: f, Hops: 0})
		}
	}
	for _, nb := range s.net.Graph().Neighbors(requestor) {
		s.net.SendKind(requestor, nb, kindQueryID, queryPayload{
			id: st.id, query: query, ttl: ttl, hops: 1, path: []topology.NodeID{requestor},
		})
	}
	s.net.Run(0)
	s.cur = nil
	delete(s.seen, st.id)
	// Deterministic order: by hops, then provider.
	sort.Slice(st.hits, func(i, j int) bool {
		if st.hits[i].Hops != st.hits[j].Hops {
			return st.hits[i].Hops < st.hits[j].Hops
		}
		return st.hits[i].Provider < st.hits[j].Provider
	})
	return st.hits
}

// Candidates reduces hits to up to k distinct provider candidates, excluding
// the requestor itself — the "group of file provider candidates" of §3.6.
func Candidates(hits []Hit, requestor topology.NodeID, k int) []topology.NodeID {
	var out []topology.NodeID
	seen := map[topology.NodeID]bool{requestor: true}
	for _, h := range hits {
		if seen[h.Provider] {
			continue
		}
		seen[h.Provider] = true
		out = append(out, h.Provider)
		if len(out) == k {
			break
		}
	}
	return out
}
