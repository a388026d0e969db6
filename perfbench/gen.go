package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math/rand"
	"sync"

	"repro/internal/textio"
	"repro/internal/workload"
)

// load is one logical MC³ instance in wire form: distinct queries as property
// names and every classifier of C_Q priced, as mc3gen writes an instance.
type load struct {
	queries [][]string
	costs   map[string]float64
	// costsJSON is the encoded "costs" object, shared by every presentation
	// of the load: encoding/json writes map keys sorted.
	costsJSON []byte
}

// mix derives an independent sub-seed from the benchmark seed, a stream tag
// and an index (splitmix64 finalizer), so every generated input is a pure
// function of --seed.
func mix(seed int64, tag string, i int) int64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for j := 0; j < len(tag); j++ {
		h = (h ^ uint64(tag[j])) * 0x100000001b3
	}
	h ^= uint64(i) * 0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h >> 1)
}

// newLoad prices a dataset the way mc3gen writes an instance: the queries
// of core.NewInstance (deduplicated, in first-occurrence order) and every
// classifier of C_Q priced by textio.FromInstance.
func newLoad(d *workload.Dataset) *load {
	inst, err := d.Instance()
	if err != nil {
		panic(err) // the generators only build valid datasets
	}
	f := textio.FromInstance(inst)
	costsJSON, err := json.Marshal(f.Costs)
	if err != nil {
		panic(err) // finite costs always marshal
	}
	return &load{queries: f.Queries, costs: f.Costs, costsJSON: costsJSON}
}

// present encodes the load as a request body into b, reusing its storage.
// With a non-nil rng the query order is shuffled and the property order
// inside each query permuted: the same logical instance, presented
// differently, with names unchanged.
func (l *load) present(rng *rand.Rand, b *bytes.Buffer) []byte {
	queries := l.queries
	if rng != nil {
		queries = make([][]string, len(l.queries))
		for i, j := range rng.Perm(len(l.queries)) {
			q := append([]string(nil), l.queries[j]...)
			rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
			queries[i] = q
		}
	}
	qs, err := json.Marshal(queries)
	if err != nil {
		panic(err) // string lists always marshal
	}
	b.Reset()
	b.Grow(len(qs) + len(l.costsJSON) + 32)
	b.WriteString(`{"queries":`)
	b.Write(qs)
	b.WriteString(`,"costs":`)
	b.Write(l.costsJSON)
	b.WriteByte('}')
	return b.Bytes()
}

// parallelMap runs fn(i) for i in [0, n) on the benchmark's workers and
// returns the results in index order.
func parallelMap[T any](n int, fn func(i int) T) []T {
	out := make([]T, n)
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// ---- solve-mix ----

// Solve-mix shape. The op list alternates fresh and re-presented loads, so
// every prefix has both halves in equal measure.
const (
	mixOps     = 240 // request list length; a run stops when it is used up
	mixMinOps  = 100 // a run completes at least this list prefix, so p90 has 10 ops beyond it; cost_total sums it
	mixBases   = 3   // base loads (Private seeds 1–3) the re-presented half draws from
	mixWarmups = 2   // set-up requests (Private seeds 4 and 5)
)

// mixOp is one /solve request of the list. A fresh load's body is held
// gzipped, and a re-presentation is encoded from its base load when it is
// sent: the list's raw bodies would be several times the server's own heap,
// and the process's peak heap would measure them rather than the program.
type mixOp struct {
	zbody []byte // fresh load
	base  int    // base load index for a re-presentation, -1 for a fresh load
	order int64  // presentation seed of a re-presentation
}

// mixInput is the whole generated solve-mix input.
type mixInput struct {
	ops     []mixOp
	bases   []*load
	warmups [][]byte
}

// body writes op i's request body into buf and returns it.
func (in *mixInput) body(i int, buf *bytes.Buffer) []byte {
	op := in.ops[i]
	if op.base < 0 {
		return gunzip(op.zbody, buf)
	}
	return in.bases[op.base].present(rand.New(rand.NewSource(op.order)), buf)
}

// genMix generates the solve-mix request list: even ops are fresh Private
// loads never sent before, odd ops re-present the base loads in turn.
func genMix(seed int64) *mixInput {
	bases := parallelMap(mixBases, func(i int) *load {
		return newLoad(workload.Private(int64(i + 1)))
	})
	in := &mixInput{ops: make([]mixOp, mixOps), bases: bases}
	for i := 1; i < mixOps; i += 2 {
		in.ops[i] = mixOp{base: (i / 2) % mixBases, order: mix(seed, "mix-order", i)}
	}
	fresh := parallelMap(mixOps/2, func(i int) []byte {
		return gzipBytes(newLoad(workload.Private(mix(seed, "mix-fresh", i))).present(nil, new(bytes.Buffer)))
	})
	for i, z := range fresh {
		in.ops[2*i] = mixOp{zbody: z, base: -1}
	}
	// Set-up warms the server with the next Private seeds, fixed so that
	// setup_s does not vary with the size of a seed-drawn load.
	in.warmups = parallelMap(mixWarmups, func(i int) []byte {
		rng := rand.New(rand.NewSource(mix(seed, "mix-warmup", i)))
		return newLoad(workload.Private(int64(mixBases+1+i))).present(rng, new(bytes.Buffer))
	})
	return in
}

func gzipBytes(b []byte) []byte {
	var buf bytes.Buffer
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed) // the level is valid
	zw.Write(b)                                        // writes to a bytes.Buffer do not fail
	zw.Close()
	return buf.Bytes()
}

// gunzip inflates a body gzipped by gzipBytes into buf, reusing its storage.
func gunzip(z []byte, buf *bytes.Buffer) []byte {
	buf.Reset()
	zr, err := gzip.NewReader(bytes.NewReader(z))
	if err == nil {
		_, err = buf.ReadFrom(zr)
	}
	if err != nil {
		panic(err) // the benchmark gzipped the body itself
	}
	return buf.Bytes()
}

// ---- session-delta ----

// Session-delta shape.
const (
	sessionQueries = 20000 // SyntheticShort size: ~18k distinct pairs
	sessionBatch   = 20    // deltas per /delta request
	sessionAdds    = 9     // adds per batch, and as many removes; the rest re-price
	sessionBatches = 2400  // batches generated per session
	sessionCostOps = 100   // cost_total sums the first batches of each session
)

// sessions is how many sessions session-delta keeps; the client posts to
// them in turn.
const sessions = 2

// sessionSeeds are the SyntheticShort dataset seeds of the sessions.
// Synthetic pool sizes spread over two orders of magnitude with the dataset
// seed; these two have pools of 465 and 645 properties and ~18–19k
// distinct queries each. The benchmark seed picks each load's presentation
// and the delta streams.
var sessionSeeds = [sessions]int64{1, 4}

// sessionInput is one session: its /load body and delta batches.
type sessionInput struct {
	// load holds the queries the session is loaded with and prices every
	// classifier of the dataset, the held-back queries' too.
	load    *load
	held    int // distinct queries held back for the deltas to add
	body    []byte
	batches []deltaBatch
}

// deltaBatch is one /delta request.
type deltaBatch struct {
	deltas []wireDelta
	body   []byte
}

// wireDelta is the /delta wire form of one delta.
type wireDelta struct {
	Op    string   `json:"op"`
	Props []string `json:"props"`
	Cost  float64  `json:"cost,omitempty"`
}

// genSessions generates the sessions.
func genSessions(seed int64) []*sessionInput {
	return parallelMap(sessions, func(i int) *sessionInput {
		return genSession(workload.SyntheticShort(sessionQueries, sessionSeeds[i]), sessionBatches, mix(seed, "session", i))
	})
}

// genSession generates a session of a dataset: a /load of the first half of
// its distinct queries and delta batches that add queries of the other half
// and remove live ones, so that every add and remove changes the session's
// distinct query set.
func genSession(d *workload.Dataset, batches int, seed int64) *sessionInput {
	l := newLoad(d)
	half := len(l.queries) / 2
	held := l.queries[half:]
	l.queries = l.queries[:half:half]
	rng := rand.New(rand.NewSource(seed))
	s := &sessionInput{load: l, held: len(held), body: l.present(rng, new(bytes.Buffer))}
	for _, deltas := range genDeltas(l.queries, held, batches, rng.Int63()) {
		batch := deltaBatch{deltas: deltas}
		body, err := json.Marshal(struct {
			Deltas []wireDelta `json:"deltas"`
		}{batch.deltas})
		if err != nil {
			panic(err) // plain strings and floats always marshal
		}
		batch.body = body
		s.batches = append(s.batches, batch)
	}
	return s
}

// genDeltas generates the delta batches of a session loaded with the live
// queries. It keeps mc3gen's -deltas re-pricing share (10%: a random
// sub-classifier of a live query gets a cost in [1, 50]), but its adds and
// removes, 45% each, move a query between the live set and the pool, where
// mc3gen's generator, written for sessions that start empty, would re-add
// queries the /load already holds. Every batch has the same make-up in a
// seeded order, so the session keeps its size and a run's work does not
// depend on how far a random walk of it strayed. Both halves must hold more
// than sessionAdds queries.
func genDeltas(live, pool [][]string, batches int, seed int64) [][]wireDelta {
	rng := rand.New(rand.NewSource(seed))
	live = append([][]string(nil), live...)
	pool = append([][]string(nil), pool...)
	// take removes and returns a random element of *qs.
	take := func(qs *[][]string) []string {
		j := rng.Intn(len(*qs))
		q := (*qs)[j]
		(*qs)[j] = (*qs)[len(*qs)-1]
		*qs = (*qs)[:len(*qs)-1]
		return q
	}
	ops := make([]string, sessionBatch)
	for i := range ops {
		switch {
		case i < sessionAdds:
			ops[i] = "add"
		case i < 2*sessionAdds:
			ops[i] = "remove"
		default:
			ops[i] = "update-cost"
		}
	}
	out := make([][]wireDelta, batches)
	for b := range out {
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for _, op := range ops {
			d := wireDelta{Op: op}
			switch op {
			case "add":
				d.Props = take(&pool)
				live = append(live, d.Props)
			case "remove":
				d.Props = take(&live)
				pool = append(pool, d.Props)
			default:
				q := live[rng.Intn(len(live))]
				for _, j := range rng.Perm(len(q))[:rng.Intn(len(q))+1] {
					d.Props = append(d.Props, q[j])
				}
				d.Cost = float64(rng.Intn(50) + 1)
			}
			out[b] = append(out[b], d)
		}
	}
	return out
}
