package core

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// CostModel assigns a construction cost to every candidate classifier.
// Returning math.Inf(1) means the classifier is unavailable (the paper models
// classifiers that are omitted from the input as having infinite weight).
// Costs must be non-negative.
//
// The PropSet passed to Cost may be a buffer the caller reuses after Cost
// returns (instance construction enumerates the classifier universe through
// one scratch set): implementations must not retain it — copy it with
// NewPropSet(s...) if a reference must outlive the call.
type CostModel interface {
	Cost(s PropSet) float64
}

// CostFunc adapts a plain function to the CostModel interface.
type CostFunc func(PropSet) float64

// Cost implements CostModel.
func (f CostFunc) Cost(s PropSet) float64 { return f(s) }

// UniformCost is a CostModel that prices every classifier at a fixed cost,
// matching the restricted model of the paper's predecessor [13] and the
// BestBuy dataset.
type UniformCost float64

// Cost implements CostModel.
func (c UniformCost) Cost(PropSet) float64 { return float64(c) }

// CostTable is a CostModel backed by an explicit map from PropSet keys to
// costs. Classifiers absent from the table get Default (use math.Inf(1) to
// make unlisted classifiers unavailable).
type CostTable struct {
	Costs   map[string]float64
	Default float64
}

// NewCostTable returns an empty table with the given default cost.
func NewCostTable(def float64) *CostTable {
	return &CostTable{Costs: make(map[string]float64), Default: def}
}

// Set assigns cost c to the classifier testing exactly the properties in s.
func (t *CostTable) Set(s PropSet, c float64) { t.Costs[s.Key()] = c }

// Cost implements CostModel.
func (t *CostTable) Cost(s PropSet) float64 {
	var buf [4 * MaxEnumQueryLen]byte
	// Indexing a map by string(bytes) does not allocate; sets longer than the
	// stack buffer (impossible for enumerated classifiers) fall back to an
	// appended key.
	if c, ok := t.Costs[string(s.AppendKey(buf[:0]))]; ok {
		return c
	}
	return t.Default
}

// ClassifierID indexes a classifier within an Instance.
type ClassifierID int32

// NoClassifier is the invalid ClassifierID.
const NoClassifier ClassifierID = -1

// QueryClassifier is a classifier viewed from inside a particular query: its
// instance-wide ID plus the bitmask of the query's properties it tests (bit i
// corresponds to the i-th property of the query's canonical PropSet order).
type QueryClassifier struct {
	ID   ClassifierID
	Mask uint64
}

// Options configure instance construction.
type Options struct {
	// MaxClassifierLen bounds the length of enumerated classifiers (the
	// paper's k' < k "bounded classifiers" variant, Section 5.3). Zero means
	// no bound beyond query length.
	MaxClassifierLen int
	// MaxQueryLen rejects queries longer than this during construction.
	// Zero means the built-in enumeration safety limit (MaxEnumQueryLen).
	MaxQueryLen int
	// KeepDuplicateQueries retains duplicate queries instead of merging
	// them. The paper assumes a set of distinct queries; duplicates are
	// merged by default.
	KeepDuplicateQueries bool
}

// MaxEnumQueryLen is the hard cap on query length: the classifier universe of
// a query of length L has 2^L−1 members, so enumeration beyond this is
// rejected rather than silently exploding. The paper notes queries beyond
// length 10 are rare in practice and omitted from its synthetic workload.
const MaxEnumQueryLen = 20

// Instance is a fully materialized MC³ problem: the query load Q, the
// classifier universe C_Q (every non-empty subset of a query priced below
// +Inf by the cost model), and per-query / per-classifier cross-indexes.
//
// Instances are immutable after construction; solvers layer their own mutable
// state (effective costs, selections) on top.
type Instance struct {
	Universe *Universe

	queries     []PropSet
	classifiers []PropSet
	costs       []float64
	byKey       map[string]ClassifierID

	queryCls   [][]QueryClassifier // per query: available classifiers ⊆ q
	clsQueries [][]int32           // per classifier: indices of queries containing it

	maxQueryLen      int
	maxClassifierLen int
	sumQueryLen      int
}

// NewInstance materializes an MC³ instance from a query load and a cost
// model. Queries must be non-empty; duplicates are merged unless
// opts.KeepDuplicateQueries is set. The classifier universe C_Q is enumerated
// per Section 2.1: every non-empty subset of every query, keeping those the
// cost model prices below +Inf.
func NewInstance(u *Universe, queries []PropSet, cm CostModel, opts Options) (*Instance, error) {
	if u == nil {
		return nil, errors.New("core: nil Universe")
	}
	if cm == nil {
		return nil, errors.New("core: nil CostModel")
	}
	maxQ := opts.MaxQueryLen
	if maxQ <= 0 || maxQ > MaxEnumQueryLen {
		maxQ = MaxEnumQueryLen
	}

	inst := &Instance{
		Universe: u,
		byKey:    make(map[string]ClassifierID),
	}

	// keyBuf is the one scratch buffer every canonical key of the
	// construction is byte-encoded into; map lookups go through
	// m[string(keyBuf)], which the compiler compiles without allocating, so
	// a key string is only materialized when a new entry is stored.
	keyBuf := make([]byte, 0, 4*MaxEnumQueryLen)

	seen := make(map[string]bool, len(queries))
	for qi, q := range queries {
		if q.Empty() {
			return nil, fmt.Errorf("core: query %d is empty", qi)
		}
		if q.Len() > maxQ {
			return nil, fmt.Errorf("core: query %d has length %d, exceeding the limit %d", qi, q.Len(), maxQ)
		}
		if !opts.KeepDuplicateQueries {
			keyBuf = q.AppendKey(keyBuf[:0])
			if seen[string(keyBuf)] {
				continue
			}
			seen[string(keyBuf)] = true
		}
		inst.queries = append(inst.queries, q)
		if q.Len() > inst.maxQueryLen {
			inst.maxQueryLen = q.Len()
		}
		inst.sumQueryLen += q.Len()
	}
	if len(inst.queries) == 0 {
		return nil, errors.New("core: no queries")
	}

	kPrime := opts.MaxClassifierLen
	if kPrime <= 0 || kPrime > inst.maxQueryLen {
		kPrime = inst.maxQueryLen
	}

	// shapeOf memoizes enumeration per unique query shape: with
	// KeepDuplicateQueries set, a repeated query shares the first
	// occurrence's classifier list instead of re-walking its 2^|q|−1 subsets
	// (without the option duplicates were merged above and every shape is
	// seen once, so the map stays cold).
	var shapeOf map[string]int32
	if opts.KeepDuplicateQueries {
		shapeOf = make(map[string]int32, len(inst.queries))
	}
	// scratch is the reusable subset buffer handed to the cost model; a
	// durable PropSet is materialized only for classifiers that join the
	// universe (CostModel documents that Cost must not retain its argument).
	scratch := make(PropSet, 0, inst.maxQueryLen)

	inst.queryCls = make([][]QueryClassifier, len(inst.queries))
	for qi, q := range inst.queries {
		if shapeOf != nil {
			keyBuf = q.AppendKey(keyBuf[:0])
			if prev, ok := shapeOf[string(keyBuf)]; ok {
				// Identical query: same subsets, same verdicts, same masks.
				// queryCls rows are immutable after construction, so sharing
				// the backing array is safe.
				inst.queryCls[qi] = inst.queryCls[prev]
				for _, qc := range inst.queryCls[qi] {
					inst.clsQueries[qc.ID] = append(inst.clsQueries[qc.ID], int32(qi))
				}
				continue
			}
			shapeOf[string(keyBuf)] = int32(qi)
		}
		L := q.Len()
		full := uint64(1)<<uint(L) - 1
		for mask := uint64(1); mask <= full; mask++ {
			if bits.OnesCount64(mask) > kPrime {
				continue
			}
			// Byte-encode the subset's canonical key straight from the mask:
			// q is sorted, so visiting set bits low-to-high yields the
			// canonical order with no intermediate PropSet.
			keyBuf = keyBuf[:0]
			for m := mask; m != 0; m &= m - 1 {
				id := q[bits.TrailingZeros64(m)]
				keyBuf = append(keyBuf, byte(id>>24), byte(id>>16), byte(id>>8), byte(id))
			}
			id, ok := inst.byKey[string(keyBuf)]
			if !ok {
				scratch = scratch[:0]
				for m := mask; m != 0; m &= m - 1 {
					scratch = append(scratch, q[bits.TrailingZeros64(m)])
				}
				c := cm.Cost(scratch)
				if c < 0 || math.IsNaN(c) {
					return nil, fmt.Errorf("core: cost model returned invalid cost %v for classifier %v", c, scratch)
				}
				if math.IsInf(c, 1) {
					// Unavailable classifiers are omitted from the input
					// entirely; remember the verdict to avoid re-pricing.
					inst.byKey[string(keyBuf)] = NoClassifier
					continue
				}
				sub := make(PropSet, len(scratch))
				copy(sub, scratch)
				id = ClassifierID(len(inst.classifiers))
				inst.classifiers = append(inst.classifiers, sub)
				inst.costs = append(inst.costs, c)
				inst.clsQueries = append(inst.clsQueries, nil)
				inst.byKey[string(keyBuf)] = id
				if sub.Len() > inst.maxClassifierLen {
					inst.maxClassifierLen = sub.Len()
				}
			} else if id == NoClassifier {
				continue
			}
			inst.queryCls[qi] = append(inst.queryCls[qi], QueryClassifier{ID: id, Mask: mask})
			inst.clsQueries[id] = append(inst.clsQueries[id], int32(qi))
		}
	}

	// Drop the negative cache entries so byKey maps only real classifiers.
	for k, id := range inst.byKey {
		if id == NoClassifier {
			delete(inst.byKey, k)
		}
	}
	return inst, nil
}

// NumQueries returns n, the number of (distinct) queries.
func (inst *Instance) NumQueries() int { return len(inst.queries) }

// Query returns the i-th query.
func (inst *Instance) Query(i int) PropSet { return inst.queries[i] }

// Queries returns the query load. The returned slice must not be modified.
func (inst *Instance) Queries() []PropSet { return inst.queries }

// NumClassifiers returns m̂, the size of the classifier universe C_Q
// (finite-cost classifiers only).
func (inst *Instance) NumClassifiers() int { return len(inst.classifiers) }

// Classifier returns the property set tested by classifier id.
func (inst *Instance) Classifier(id ClassifierID) PropSet { return inst.classifiers[id] }

// Cost returns the construction cost of classifier id.
func (inst *Instance) Cost(id ClassifierID) float64 { return inst.costs[id] }

// Costs returns the full cost vector indexed by ClassifierID. The returned
// slice must not be modified; copy it to derive effective costs.
func (inst *Instance) Costs() []float64 { return inst.costs }

// ClassifierIDOf returns the ID of the classifier testing exactly s, if it is
// part of the instance's universe.
func (inst *Instance) ClassifierIDOf(s PropSet) (ClassifierID, bool) {
	id, ok := inst.byKey[s.Key()]
	return id, ok
}

// QueryClassifiers returns the classifiers available for query i (all
// finite-cost subsets of the query), with query-local bitmasks. The returned
// slice must not be modified.
func (inst *Instance) QueryClassifiers(i int) []QueryClassifier { return inst.queryCls[i] }

// ClassifierQueries returns the indices of queries that contain classifier
// id's property set — the incidence list Q_S. The returned slice must not be
// modified.
func (inst *Instance) ClassifierQueries(id ClassifierID) []int32 { return inst.clsQueries[id] }

// Incidence returns I(S) for classifier id: the number of queries containing
// its property set.
func (inst *Instance) Incidence(id ClassifierID) int { return len(inst.clsQueries[id]) }

// MaxQueryLen returns k, the maximal query length.
func (inst *Instance) MaxQueryLen() int { return inst.maxQueryLen }

// MaxClassifierLen returns the maximal classifier length present (k' when
// the bounded-classifiers option is used, otherwise ≤ k).
func (inst *Instance) MaxClassifierLen() int { return inst.maxClassifierLen }

// SumQueryLen returns n̂ = Σ|q|, the universe size of the WSC reduction.
func (inst *Instance) SumQueryLen() int { return inst.sumQueryLen }

// FullMask returns the bitmask covering all properties of query i.
func (inst *Instance) FullMask(i int) uint64 {
	return uint64(1)<<uint(inst.queries[i].Len()) - 1
}
