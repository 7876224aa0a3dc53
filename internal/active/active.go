// Package active implements the paper's risk learning process
// (Section III): per-pool rounds of owner labeling and classifier
// prediction, with the accuracy (Definition 4), classification-change
// stabilization (Definition 5) and combined stopping rule of
// Section III-D.
//
// Each pool of strangers runs an independent Session. In every round
// the session samples a handful of still-unlabeled strangers from the
// pool, asks the Annotator (the owner — in this reproduction usually a
// simulated owner) for their risk labels, retrains the classifier on
// all collected labels, and predicts labels for the remaining
// strangers. Labels queried in round i+1 double as validation for the
// predictions of round i, which is how RMSE is measured without extra
// owner effort.
package active

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
)

// Annotator supplies owner risk judgments. Implementations may be a
// live UI or a simulated owner model. Annotator is the infallible
// legacy contract: LabelStranger cannot fail and cannot be
// interrupted. Annotators that can fail — real owner frontends with
// timeouts, rate limits and abandonment — implement FallibleAnnotator
// instead; wrap an Annotator with Infallible to use it where a
// FallibleAnnotator is expected.
//
// Concurrency contract: a Session calls LabelStranger from the single
// goroutine running Session.Run, and the core engine runs an owner's
// sessions one after another — so implementations are never invoked
// concurrently and need no internal locking. Implementations that
// want reproducible pipeline output must be deterministic per stranger
// (same stranger → same label, regardless of question order).
type Annotator interface {
	// LabelStranger returns the owner's risk label for the stranger.
	LabelStranger(s graph.UserID) label.Label
}

// kernelClassifier is the fast path a classifier may offer: solve
// over the pool's row-twin kernel, seeded with the previous round's
// solution (init nil means a cold start).
type kernelClassifier interface {
	PredictKernel(k *classify.Kernel, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error)
}

// warmStartClassifier is the dense fallback's warm-start path: seed
// the solve with the previous round's solution.
type warmStartClassifier interface {
	PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error)
}

// AnnotatorFunc adapts a function to the Annotator interface.
type AnnotatorFunc func(s graph.UserID) label.Label

// LabelStranger implements Annotator.
func (f AnnotatorFunc) LabelStranger(s graph.UserID) label.Label { return f(s) }

// Config parameterizes a learning session.
type Config struct {
	// PerRound is the number of strangers the owner labels each round
	// (paper: 3).
	PerRound int
	// Confidence is the owner-selected confidence c ∈ [0,100] used by
	// the classification-change tolerance (paper's user mean: ~78.39).
	Confidence float64
	// StableRounds is n: consecutive rounds without classification
	// change required to stop (paper: 2).
	StableRounds int
	// RMSEThreshold is the accuracy part of the stopping rule
	// (paper: 0.5).
	RMSEThreshold float64
	// MaxRounds caps the session to guarantee termination even with a
	// never-satisfied rule; 0 means "until the pool is exhausted".
	MaxRounds int
	// Classifier predicts labels from the labeled subset; nil defaults
	// to a per-session harmonic-function classifier. A non-nil
	// instance may be shared by concurrently running sessions (owners
	// estimated at once under one configuration share it), so it must
	// keep no mutable per-call state — true of every classifier,
	// sampler and stopper in this module.
	Classifier classify.Classifier
	// Sampler selects each round's query set; nil defaults to the
	// paper's uniform RandomSampler.
	Sampler Sampler
	// Stopper decides when querying may stop; nil defaults to the
	// paper's CombinedStopper built from RMSEThreshold and
	// StableRounds.
	Stopper Stopper
	// Rand drives stranger sampling; nil defaults to a fixed seed so
	// sessions are reproducible.
	Rand *rand.Rand
	// AfterRound, when non-nil, is invoked after every completed round
	// with that round's trace — the engine uses it to checkpoint the
	// session so an interrupted run can resume without re-asking the
	// owner anything. Returning an error aborts the session with that
	// error (a failed checkpoint write should stop the run, not
	// silently lose durability).
	AfterRound func(Round) error
	// Observe, when non-nil, receives the session's structured events:
	// one KindQuery per owner label collected and one KindRound per
	// completed round. The engine decorates the hook with tenant, owner
	// and pool attribution before forwarding to its Observer; events
	// are emitted from the session goroutine in session order. Nil
	// costs nothing on the query/round hot path.
	Observe func(obs.Event)
	// Digests, when true, attaches an order-sensitive FNV-64a digest of
	// each round's predictions (label + expected value per member, in
	// member order) to the round events — the determinism auditor's
	// per-round fingerprint of classifier output and tie-breaks.
	Digests bool
}

// DefaultConfig returns the paper's experimental setting: 3 labels per
// round, confidence 80, n = 2 stable rounds, RMSE threshold 0.5.
func DefaultConfig() Config {
	return Config{
		PerRound:      3,
		Confidence:    80,
		StableRounds:  2,
		RMSEThreshold: 0.5,
	}
}

func (c Config) validate() error {
	if c.PerRound < 1 {
		return fmt.Errorf("active: PerRound must be >= 1, got %d", c.PerRound)
	}
	if c.Confidence < 0 || c.Confidence > 100 {
		return fmt.Errorf("active: Confidence must be in [0,100], got %g", c.Confidence)
	}
	if c.StableRounds < 1 {
		return fmt.Errorf("active: StableRounds must be >= 1, got %d", c.StableRounds)
	}
	if c.RMSEThreshold <= 0 {
		return fmt.Errorf("active: RMSEThreshold must be > 0, got %g", c.RMSEThreshold)
	}
	return nil
}

// Validate checks the configuration and returns a descriptive error
// for out-of-range fields (PerRound < 1, Confidence outside [0,100],
// StableRounds < 1, RMSEThreshold <= 0).
func (c Config) Validate() error { return c.validate() }

// ChangeTolerance returns Definition 5's tolerance for confidence c:
// (Lmax - Lmin) · (100 - c) / 100. A stranger's prediction is
// "unstabilized" in a round when the absolute change of its predicted
// label from the previous round is >= this tolerance. Note the literal
// consequence the paper points out: with c = 100 the tolerance is 0
// and even an unchanged label (change 0 >= 0) counts as unstabilized,
// so the session never stabilizes and the owner labels everything.
func ChangeTolerance(confidence float64) float64 {
	return float64(label.Max-label.Min) * (100 - confidence) / 100
}

// StopReason records why a session ended.
type StopReason string

// Session outcomes.
const (
	StopConverged   StopReason = "converged"    // RMSE and stabilization both satisfied
	StopExhausted   StopReason = "exhausted"    // every stranger in the pool was labeled
	StopMaxRounds   StopReason = "max-rounds"   // MaxRounds reached before convergence
	StopTrivial     StopReason = "trivial-pool" // pool too small to need prediction
	StopInterrupted StopReason = "interrupted"  // annotator failure, abandonment or cancellation
)

// Round is the trace of one labeling round.
type Round struct {
	// Number is the 1-based round index.
	Number int
	// Queried lists the strangers labeled this round.
	Queried []graph.UserID
	// RMSE compares this round's fresh owner labels against the
	// previous round's predictions (Definition 4). NaN in round 1,
	// where no prior predictions exist.
	RMSE float64
	// ExactMatches counts queried strangers whose previous-round
	// prediction exactly equals the owner label; ExactTotal is the
	// number of comparisons (0 in round 1).
	ExactMatches, ExactTotal int
	// Unstabilized counts pool strangers whose predicted label moved
	// by at least the confidence tolerance relative to the previous
	// round (Definition 5); -1 in round 1.
	Unstabilized int
}

// Result is the outcome of a pool session.
type Result struct {
	Pool []graph.UserID
	// Labels holds the final label of every pool member: the owner's
	// label where one was collected, the classifier's otherwise.
	Labels map[graph.UserID]label.Label
	// OwnerLabeled marks which members the owner labeled directly.
	OwnerLabeled map[graph.UserID]bool
	// Predicted holds the last classifier prediction for every member
	// (labeled members echo their owner label).
	Predicted map[graph.UserID]classify.Prediction
	Rounds    []Round
	Reason    StopReason
}

// QueriedCount returns the number of owner labels the session used.
func (r *Result) QueriedCount() int { return len(r.OwnerLabeled) }

// RoundsToStop returns the number of rounds the session ran.
func (r *Result) RoundsToStop() int { return len(r.Rounds) }

// ExactMatchStats sums the validation comparisons over all rounds and
// returns (matches, total). total is 0 for single-round sessions.
func (r *Result) ExactMatchStats() (matches, total int) {
	for _, rd := range r.Rounds {
		matches += rd.ExactMatches
		total += rd.ExactTotal
	}
	return matches, total
}

// Session runs the active-learning loop for one pool.
type Session struct {
	cfg     Config
	members []graph.UserID
	kernel  *classify.Kernel
	dense   [][]float64 // kernel.Dense(), for a classifier without PredictKernel
	ann     FallibleAnnotator
	clf     classify.Classifier
	sampler Sampler
	stopper Stopper
	rng     *rand.Rand // nil until the first draw when Config.Rand is nil
	opening []int      // round 1's query set, once drawn
}

// NewSession prepares a session over the pool members with the pool's
// profile-similarity weights as a row-twin kernel (k.At(i, j) between
// members[i] and members[j]; see classify.KernelOf). The kernel is only
// read, so one kernel may serve concurrent sessions. A classifier
// without PredictKernel gets the kernel's dense expansion, built once
// here. The annotator is fallible; wrap a legacy infallible Annotator
// with Infallible.
func NewSession(members []graph.UserID, k *classify.Kernel, ann FallibleAnnotator, cfg Config) (*Session, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if ann == nil {
		return nil, fmt.Errorf("active: annotator must not be nil")
	}
	if k == nil || len(k.Class) != len(members) || len(k.W) != k.T*k.T {
		return nil, fmt.Errorf("active: weight kernel does not cover the %d pool members", len(members))
	}
	for i, c := range k.Class {
		if c < 0 || int(c) >= k.T {
			return nil, fmt.Errorf("active: weight kernel puts member %d in class %d of %d", i, c, k.T)
		}
	}
	clf := cfg.Classifier
	if clf == nil {
		clf = classify.NewHarmonic()
	}
	sampler := cfg.Sampler
	if sampler == nil {
		sampler = RandomSampler{}
	}
	stopper := cfg.Stopper
	if stopper == nil {
		stopper = CombinedStopper{RMSEThreshold: cfg.RMSEThreshold, StableRounds: cfg.StableRounds}
	}
	var dense [][]float64
	if _, ok := clf.(kernelClassifier); !ok {
		dense = k.Dense()
	}
	return &Session{
		cfg:     cfg,
		members: members,
		kernel:  k,
		dense:   dense,
		ann:     ann,
		clf:     clf,
		sampler: sampler,
		stopper: stopper,
		rng:     cfg.Rand,
	}, nil
}

// OpeningRound returns the strangers the session's first round asks, in
// the order it asks them: every member of a pool of at most PerRound
// members, otherwise the sampler's round-1 pick. Round 1 is fixed
// before any label exists, so it can be drawn ahead of the run:
// RunContext then asks exactly these strangers in round 1 and does not
// draw them again. The core engine uses it to show a RoundAsker every
// pool's opening round at once.
func (s *Session) OpeningRound() []graph.UserID {
	idxs := s.openingIdx()
	out := make([]graph.UserID, len(idxs))
	for i, idx := range idxs {
		out[i] = s.members[idx]
	}
	return out
}

// openingIdx returns round 1's query set as member indices, drawing it
// on the first call.
func (s *Session) openingIdx() []int {
	if s.opening == nil {
		all := make([]int, len(s.members))
		for i := range all {
			all[i] = i
		}
		s.opening = all
		if len(all) > s.cfg.PerRound {
			s.opening = s.draw(all, nil, s.cfg.PerRound)
		}
	}
	return s.opening
}

// draw picks a round's query set from unlabeled, seeding the default
// RNG on the first draw: a pool labeled outright never draws, so it
// never pays for seeding one.
func (s *Session) draw(unlabeled []int, prev []classify.Prediction, k int) []int {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(1))
	}
	return s.sampler.Select(s.rng, unlabeled, prev, s.kernel, k)
}

// Run executes the session without external cancellation; it is
// RunContext with a background context.
func (s *Session) Run() (*Result, error) { return s.RunContext(context.Background()) }

// RunContext executes rounds until the stopping condition of
// Section III-D holds: the most recent validation RMSE is below the
// threshold AND no classification change occurred for StableRounds
// consecutive rounds — or until the pool is exhausted or MaxRounds is
// hit.
//
// ctx is checked at every query boundary (before each owner question
// and at each round start); cancellation aborts the session at the
// next boundary. When the annotator fails or ctx is canceled,
// RunContext returns BOTH a partial Result (Reason StopInterrupted,
// carrying every owner label gathered so far plus the last round's
// predictions where available) and the error — callers decide whether
// to degrade gracefully from the partial state or to fail. A
// RoundAsker annotator is shown each round's query set before the
// round's first question, and when ctx ends mid-round the partial
// Result keeps every answer it already holds for that round.
func (s *Session) RunContext(ctx context.Context) (*Result, error) {
	n := len(s.members)
	res := &Result{
		Pool:         s.members,
		Labels:       make(map[graph.UserID]label.Label, n),
		OwnerLabeled: make(map[graph.UserID]bool, n),
		Predicted:    make(map[graph.UserID]classify.Prediction, n),
	}
	if n == 0 {
		res.Reason = StopTrivial
		return res, nil
	}
	// Pools at or below the per-round budget are labeled outright:
	// prediction would save no owner effort.
	if n <= s.cfg.PerRound {
		tr := Round{Number: 1, RMSE: math.NaN(), Unstabilized: -1}
		cause, err := s.ask(ctx, 1, s.openingIdx(), func(idx int, l label.Label) {
			m := s.members[idx]
			res.Labels[m] = l
			res.OwnerLabeled[m] = true
			res.Predicted[m] = clampedPrediction(l)
			tr.Queried = append(tr.Queried, m)
		})
		if err != nil {
			return nil, err
		}
		if cause != nil {
			res.Reason = StopInterrupted
			res.Rounds = []Round{tr}
			return res, cause
		}
		res.Reason = StopTrivial
		res.Rounds = []Round{tr}
		if s.cfg.Observe != nil {
			var dig obs.Digest
			if s.cfg.Digests {
				d := obs.NewDigest()
				for _, m := range s.members {
					p := res.Predicted[m]
					d = d.Int(int64(p.Label)).Float(p.Expected)
				}
				dig = d
			}
			s.cfg.Observe(obs.Event{Kind: obs.KindRound, Round: 1, N: -1, Value: -1, Digest: dig})
		}
		if s.cfg.AfterRound != nil {
			if err := s.cfg.AfterRound(tr); err != nil {
				return nil, err
			}
		}
		return res, nil
	}

	labeled := make(map[int]label.Label) // index -> owner label
	unlabeled := make([]int, 0, n)       // indices still unlabeled
	for i := range s.members {
		unlabeled = append(unlabeled, i)
	}
	var prev []classify.Prediction // previous round's predictions
	tolerance := ChangeTolerance(s.cfg.Confidence)

	stableStreak := 0
	lastRMSE := math.NaN()

	// interrupt assembles the partial result handed back alongside a
	// terminal annotator error or cancellation: owner labels collected
	// so far, plus the previous round's predictions for everyone else
	// (when at least one round completed).
	interrupt := func(err error) (*Result, error) {
		for i, m := range s.members {
			if l, ok := labeled[i]; ok {
				res.Labels[m] = l
				res.OwnerLabeled[m] = true
				res.Predicted[m] = clampedPrediction(l)
			} else if prev != nil {
				res.Predicted[m] = prev[i]
				res.Labels[m] = prev[i].Label
			}
		}
		res.Reason = StopInterrupted
		return res, err
	}

	for round := 1; ; round++ {
		if s.cfg.MaxRounds > 0 && round > s.cfg.MaxRounds {
			res.Reason = StopMaxRounds
			break
		}
		if err := ctx.Err(); err != nil {
			return interrupt(err)
		}
		// Sample this round's query set from the unlabeled pool.
		var queryIdx []int
		if round == 1 {
			queryIdx = s.openingIdx()
		} else {
			queryIdx = s.draw(unlabeled, prev, min(s.cfg.PerRound, len(unlabeled)))
		}
		tr := Round{Number: round, RMSE: math.NaN(), Unstabilized: -1}

		// Collect owner labels; validate the previous round's
		// predictions on exactly these strangers (Definition 4).
		var sqErr float64
		cause, err := s.ask(ctx, round, queryIdx, func(idx int, l label.Label) {
			labeled[idx] = l
			tr.Queried = append(tr.Queried, s.members[idx])
			if prev != nil {
				d := float64(l - prev[idx].Label)
				sqErr += d * d
				tr.ExactTotal++
				if prev[idx].Label == l {
					tr.ExactMatches++
				}
			}
		})
		if err != nil {
			return nil, err
		}
		if cause != nil {
			return interrupt(cause)
		}
		unlabeled = removeIndices(unlabeled, queryIdx)
		if prev != nil && tr.ExactTotal > 0 {
			tr.RMSE = math.Sqrt(sqErr / float64(tr.ExactTotal))
			lastRMSE = tr.RMSE
		}

		// Retrain and predict, warm-starting from the previous round's
		// solution when the classifier supports it (the harmonic fixed
		// point is unique given the labels, so warm starting only
		// shortens the convergence path).
		var init [][3]float64
		if prev != nil {
			init = make([][3]float64, len(prev))
			for i, p := range prev {
				init[i] = p.Scores
			}
		}
		var preds []classify.Prediction
		if kc, ok := s.clf.(kernelClassifier); ok {
			preds, err = kc.PredictKernel(s.kernel, labeled, init)
		} else if ws, ok := s.clf.(warmStartClassifier); ok && init != nil {
			preds, err = ws.PredictFrom(s.dense, labeled, init)
		} else {
			preds, err = s.clf.Predict(s.dense, labeled)
		}
		if err != nil {
			return nil, fmt.Errorf("active: round %d: %w", round, err)
		}

		// Stabilization check (Definition 5) against the previous
		// round's predictions, over the whole pool.
		if prev != nil {
			unstab := 0
			for i := range preds {
				if math.Abs(float64(preds[i].Label-prev[i].Label)) >= tolerance {
					unstab++
				}
			}
			tr.Unstabilized = unstab
			if unstab == 0 {
				stableStreak++
			} else {
				stableStreak = 0
			}
		}
		prev = preds
		res.Rounds = append(res.Rounds, tr)
		if s.cfg.Observe != nil {
			rmse := tr.RMSE
			if math.IsNaN(rmse) {
				rmse = -1 // JSON cannot carry NaN; -1 marks "no validation"
			}
			s.cfg.Observe(obs.Event{Kind: obs.KindRound, Round: round, N: tr.Unstabilized, Value: rmse, Digest: s.predsDigest(preds)})
		}
		if s.cfg.AfterRound != nil {
			if err := s.cfg.AfterRound(tr); err != nil {
				return nil, err
			}
		}

		if len(unlabeled) == 0 {
			res.Reason = StopExhausted
			break
		}
		labeledSet := make(map[int]struct{}, len(labeled))
		for idx := range labeled {
			labeledSet[idx] = struct{}{}
		}
		if s.stopper.ShouldStop(StopState{
			Round:        round,
			LastRMSE:     lastRMSE,
			StableStreak: stableStreak,
			Predictions:  preds,
			Labeled:      labeledSet,
		}) {
			res.Reason = StopConverged
			break
		}
	}

	// Assemble final labels from the last prediction pass.
	for i, m := range s.members {
		if l, ok := labeled[i]; ok {
			res.Labels[m] = l
			res.OwnerLabeled[m] = true
			res.Predicted[m] = clampedPrediction(l)
			continue
		}
		res.Predicted[m] = prev[i]
		res.Labels[m] = prev[i].Label
	}
	return res, nil
}

// ask collects the owner's labels for one round's query set (indices
// into members) in order, handing each to got and emitting its query
// event. A RoundAsker is shown the whole set first. An annotator error,
// or ctx ending before a question, interrupts the round and is returned
// as cause; if ctx has ended, a RoundAsker is first asked, with the
// done ctx, for the round's strangers not yet asked, so answers the
// owner already gave are kept (see RoundAsker). An invalid label is a
// hard failure and is returned as err.
func (s *Session) ask(ctx context.Context, round int, idxs []int, got func(idx int, l label.Label)) (cause, err error) {
	ra, _ := s.ann.(RoundAsker)
	if ra != nil {
		strangers := make([]graph.UserID, len(idxs))
		for i, idx := range idxs {
			strangers[i] = s.members[idx]
		}
		ra.AskRound(ctx, strangers)
	}
	take := func(idx int, l label.Label) error {
		m := s.members[idx]
		if !l.Valid() {
			return fmt.Errorf("active: annotator returned invalid label %d for %d", int(l), m)
		}
		got(idx, l)
		if s.cfg.Observe != nil {
			s.cfg.Observe(obs.Event{Kind: obs.KindQuery, Round: round, User: int64(m), Label: int(l)})
		}
		return nil
	}
	for i, idx := range idxs {
		if cause = ctx.Err(); cause == nil {
			var l label.Label
			if l, cause = s.ann.LabelStranger(ctx, s.members[idx]); cause == nil {
				if err := take(idx, l); err != nil {
					return nil, err
				}
				continue
			}
			i++ // this stranger was asked: only the rest are left
		}
		if ra != nil && ctx.Err() != nil {
			for _, idx := range idxs[i:] {
				if l, aerr := s.ann.LabelStranger(ctx, s.members[idx]); aerr == nil {
					if err := take(idx, l); err != nil {
						return nil, err
					}
				}
			}
		}
		return cause, nil
	}
	return nil, nil
}

// predsDigest folds a prediction pass into an order-sensitive
// fingerprint (label plus expected-value bits per member, in member
// order); zero when digests are disabled. ULP-level differences in the
// harmonic solution — the raw material of tie-break flips — change it.
func (s *Session) predsDigest(preds []classify.Prediction) obs.Digest {
	if !s.cfg.Digests {
		return 0
	}
	d := obs.NewDigest()
	for _, p := range preds {
		d = d.Int(int64(p.Label)).Float(p.Expected)
	}
	return d
}

func clampedPrediction(l label.Label) classify.Prediction {
	var scores [3]float64
	scores[int(l)-1] = 1
	return classify.Prediction{Label: l, Scores: scores, Expected: float64(l)}
}

// removeIndices returns pool minus the given values, preserving order.
func removeIndices(pool []int, drop []int) []int {
	dropSet := make(map[int]struct{}, len(drop))
	for _, d := range drop {
		dropSet[d] = struct{}{}
	}
	out := pool[:0]
	for _, p := range pool {
		if _, ok := dropSet[p]; !ok {
			out = append(out, p)
		}
	}
	return out
}
