// Package trust implements hiREP's trust-value substrate: ground-truth
// assignment, agent evaluation models, expertise tracking, and aggregation.
//
// Following §5.2 of the paper: every node is randomly assigned trusted (true
// trust value 1) or untrusted (0). Reputation agents are good or bad
// evaluators — a good agent rates trustable peers in U(0.6, 1) and
// untrustable peers in U(0, 0.4); a poor agent is inverted. Peers track each
// trusted agent's expertise with the EWMA of §3.4.3:
//
//	accuracy = α·A_c + (1−α)·A_p,  A_c ∈ {0,1}
//
// where A_c is 1 only when the agent's evaluation was consistent with the
// observed transaction result.
package trust

import (
	"fmt"
	"math"

	"hirep/internal/xrand"
)

// Value is a trust value in [0, 1].
type Value float64

// Valid reports whether v lies in [0,1].
func (v Value) Valid() bool { return v >= 0 && v <= 1 && !math.IsNaN(float64(v)) }

// Consistent reports whether an estimated trust value agrees with the
// observed binary transaction outcome (§3.4.3: "the evaluation given by this
// agent node is consistent with the transaction result"). An estimate above
// 0.5 predicts a good transaction.
func (v Value) Consistent(goodOutcome bool) bool {
	return (v > 0.5) == goodOutcome
}

// RatingModel is the evaluation behaviour of §5.2. Good evaluators rate
// trustworthy subjects in [GoodLo, GoodHi) and untrustworthy ones in
// [BadLo, BadHi); poor evaluators invert the two ranges.
type RatingModel struct {
	GoodLo, GoodHi float64 // rating range for subjects the evaluator endorses
	BadLo, BadHi   float64 // rating range for subjects the evaluator condemns
}

// DefaultRatingModel is Table 1's rating configuration.
func DefaultRatingModel() RatingModel {
	return RatingModel{GoodLo: 0.6, GoodHi: 1.0, BadLo: 0.0, BadHi: 0.4}
}

// Validate checks the model's ranges.
func (m RatingModel) Validate() error {
	for _, p := range []struct {
		lo, hi float64
		name   string
	}{{m.GoodLo, m.GoodHi, "good"}, {m.BadLo, m.BadHi, "bad"}} {
		if p.lo < 0 || p.hi > 1 || p.hi <= p.lo {
			return fmt.Errorf("trust: invalid %s rating range [%v,%v)", p.name, p.lo, p.hi)
		}
	}
	return nil
}

// Evaluate produces an evaluator's trust rating of a subject.
// honestEvaluator selects the good-agent behaviour; subjectTrustworthy is the
// subject's ground truth.
func (m RatingModel) Evaluate(honestEvaluator, subjectTrustworthy bool, rng *xrand.RNG) Value {
	endorse := subjectTrustworthy == honestEvaluator
	if endorse {
		return Value(rng.Range(m.GoodLo, m.GoodHi))
	}
	return Value(rng.Range(m.BadLo, m.BadHi))
}

// Expertise tracks one trusted agent's evaluation accuracy via EWMA.
type Expertise struct {
	alpha float64
	value float64
}

// NewExpertise returns a tracker with smoothing factor alpha in (0,1) and the
// paper's initial expertise of 1 (§3.4.3: "a peer will assign an initial
// expertise value of 1 to each agent").
func NewExpertise(alpha float64) (*Expertise, error) {
	if alpha <= 0 || alpha >= 1 || math.IsNaN(alpha) {
		return nil, fmt.Errorf("trust: alpha must be in (0,1), got %v", alpha)
	}
	return &Expertise{alpha: alpha, value: 1}, nil
}

// Update folds one transaction's accuracy (1 if the agent's evaluation was
// consistent with the outcome, else 0) into the EWMA.
func (e *Expertise) Update(consistent bool) {
	ac := 0.0
	if consistent {
		ac = 1.0
	}
	e.value = e.alpha*ac + (1-e.alpha)*e.value
}

// Value returns the current expertise in [0,1].
func (e *Expertise) Value() float64 { return e.value }

// BackupFloor is the expertise at or below which an agent counts as
// non-positive for §3.4.3's offline handling: a demoted agent above it goes
// to the backup cache, one at or below it is dropped (the EWMA itself never
// reaches exactly zero). List.Demote applies it.
const BackupFloor = 1e-6

// Aggregate combines agent evaluations into a final estimated trust value.
type Aggregate struct {
	sumW  float64
	sumWV float64
	n     int
}

// Add includes one evaluation with the given weight (expertise). Non-positive
// weights contribute nothing.
func (a *Aggregate) Add(v Value, weight float64) {
	a.n++
	if weight <= 0 {
		return
	}
	a.sumW += weight
	a.sumWV += weight * float64(v)
}

// N returns how many evaluations were offered (including zero-weight ones).
func (a *Aggregate) N() int { return a.n }

// Value returns the weighted mean, and false when no positive-weight
// evaluation was added.
func (a *Aggregate) Value() (Value, bool) {
	if a.sumW <= 0 {
		return 0, false
	}
	return Value(a.sumWV / a.sumW), true
}

// MSEAccumulator accumulates the mean square error between estimated and true
// trust values, the paper's accuracy metric (§5.1).
type MSEAccumulator struct {
	sumSq float64
	n     int
}

// Observe records one (estimate, truth) pair.
func (m *MSEAccumulator) Observe(estimate Value, truth Value) {
	d := float64(estimate) - float64(truth)
	m.sumSq += d * d
	m.n++
}

// MSE returns the mean square error so far (0 when empty).
func (m *MSEAccumulator) MSE() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sumSq / float64(m.n)
}

// N returns the number of observations.
func (m *MSEAccumulator) N() int { return m.n }

// Oracle holds the simulation's ground truth: which nodes are trustworthy.
type Oracle struct {
	trustworthy []bool
}

// NewOracle assigns each of n nodes trustworthy with probability pTrustworthy.
func NewOracle(n int, pTrustworthy float64, rng *xrand.RNG) *Oracle {
	o := &Oracle{trustworthy: make([]bool, n)}
	for i := range o.trustworthy {
		o.trustworthy[i] = rng.Bool(pTrustworthy)
	}
	return o
}

// Trustworthy reports node i's ground truth.
func (o *Oracle) Trustworthy(i int) bool { return o.trustworthy[i] }

// TrueValue returns node i's true trust value: 1 for trustworthy, 0 otherwise.
func (o *Oracle) TrueValue(i int) Value {
	if o.trustworthy[i] {
		return 1
	}
	return 0
}

// N returns the population size.
func (o *Oracle) N() int { return len(o.trustworthy) }

// CountTrustworthy returns how many nodes are trustworthy.
func (o *Oracle) CountTrustworthy() int {
	c := 0
	for _, b := range o.trustworthy {
		if b {
			c++
		}
	}
	return c
}

// TransactionOutcome samples whether a transaction with the given provider
// succeeds. Trustworthy providers deliver authentic files; untrustworthy ones
// deliver polluted data. The simulator treats outcomes as deterministic in
// the provider's ground truth, matching the paper's binary trust assignment.
func (o *Oracle) TransactionOutcome(provider int) bool {
	return o.trustworthy[provider]
}
