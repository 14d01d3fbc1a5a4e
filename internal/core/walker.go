package core

import (
	"math"

	"fnr/internal/sim"
)

// walkerScratch is the reusable Θ(n' + ∆) storage behind a walker: the
// dense-or-map ID structures of idspace.go plus every growable list
// the walker and Construct touch. It parks on the agent's
// sim.AgentScratch slot between trials, so a worker running many
// trials re-arms it in O(1) (epoch bumps, length resets) instead of
// re-allocating ~1 MB of dense arrays per trial at n=65536. Reuse is
// representation-only: a warmed scratch answers every query exactly
// like a fresh one, so trial outcomes cannot depend on it (the
// engine's differential suite pins this).
type walkerScratch struct {
	npIdx idIndex // ID -> position in npHomeL (-1 if not in N+(home))
	via   idToID  // known vertex -> neighbor of home on a shortest path
	ns    idSet   // N+(S), the paper's NS^a
	// walker lists (see the walker fields of the same names).
	homeNb     []int64
	npHomeL    []int64
	nsL        []int64
	lastSeenNb []int64
	// seen is the agent-a stepper's copy of the current view's
	// neighbor IDs (see seenIDs).
	seen []int64
	// ret caches, per npHomeL position, the port from that vertex back
	// to home. Every Sample draw and every distance-2 trip ends
	// standing on a neighbor of home, so the cache turns the return
	// move's per-vertex port lookup into one array read. Ports are
	// pure graph structure, so the cache survives re-arms — including
	// whole trials — as long as (graph stamp, home) match; the overlap
	// memo below shares that key.
	ret sim.HomePorts
	// ovAt and ov memoize Sample's observation in dense-counter mode:
	// the members of N+(home) ∩ N+(t) for every visited vertex t, so a
	// repeat visit bumps those few counters instead of all deg(t)+1
	// (see sampleObserve). ov holds the lists back to back, each
	// preceded by the header ^t (headers are negative, members are
	// not); ovAt[t] is the index just past t's header, valid only
	// while that header still reads ^t — which lets a reset truncate
	// ov without clearing ovAt. Like ret, this is derived graph
	// structure keyed by (graph stamp, home), and simulator scratch
	// rather than agent memory: memoryWords does not count it, and
	// overlapMemoWords bounds it.
	ovAt []int32
	ov   []int32
	// Construct/Sample scratch (see the Construct and Sample states of
	// stepper_a.go).
	counts []int32
	inH    []bool
	heavy  []int64
	cand   []int64
	// diff double-buffers learn's difference sets: the previous
	// difference set stays intact while the next one builds (Construct
	// holds Γ_i across the learn call that produces Γ_{i+1}).
	diff    [2][]int64
	diffCur int
	// phi is the Φ^a sample buffer of the noboard stepper
	// (Algorithm 4).
	phi []int64
}

// walkerScratchFor finds (or creates) the walker scratch parked on the
// given trial-context slot. A nil slot (hand-built contexts, plain
// sim.Run) yields a fresh scratch every time — behaviorally identical,
// just without the reuse.
func walkerScratchFor(slot *sim.AgentScratch) *walkerScratch {
	if slot == nil {
		return &walkerScratch{}
	}
	ws, _ := slot.Get().(*walkerScratch)
	if ws == nil {
		ws = &walkerScratch{}
		slot.Set(ws)
	}
	return ws
}

// walkerCore is agent a's bookkeeping: the learned 2-neighborhood of
// the start vertex, the via table that keeps every learned vertex
// within two moves of home, and the pure arithmetic of Algorithms 2
// and 3. The agent-a stepper drives it from its state machine; the
// test-only Program reference embeds the same core in an Env-driven
// walker, so the two share every decision computation and cannot
// drift apart numerically.
//
// The ID-keyed state lives in the dense-or-map structures of
// idspace.go: Sample's inner loop touches them once per observed
// neighbor, which made the original map-backed forms the dominant
// cost of the whole Theorem-1 simulation. All of it lives in the
// reusable walkerScratch s:
//
//   - s.homeNb: N(home) IDs in port order
//   - s.npHomeL: N+(home) as a list (home first)
//   - s.nsL: NS as a list, in discovery order
type walkerCore struct {
	p        *Params
	s        *walkerScratch
	lnN      float64
	deltaEst float64 // current δ' (exact δ or the doubling estimate)
	doubling bool
	// denseCounts selects the ID-indexed Sample counters (see
	// sampleReset): like the idspace structures, small ID spaces get
	// dense arrays, large ones the position-indexed fallback.
	nPrime      int64
	denseCounts bool

	home   int64
	visits int64 // number of vertex visits (diagnostics)

	// lastSeen holds the full neighbor list of the most recently
	// visited candidate only (in s.lastSeenNb). One entry suffices —
	// Construct consumes it immediately when the candidate is selected
	// as x_i — and keeping just one preserves the paper's O(n log n)-bit
	// memory claim (an unbounded cache could reach Θ(δ·∆) words).
	lastSeenID int64
}

// newWalkerCore snapshots the start vertex's neighborhood (home ID and
// its neighbor list as observed there) and re-arms the shared scratch.
// Only one core per agent is ever live at a time (doubling restarts
// discard the old one before constructing anew), so re-arming here is
// safe.
func newWalkerCore(s *walkerScratch, graphStamp uint64, nPrime int64, p *Params, deltaEst float64, doubling bool, home int64, homeNbs []int64) walkerCore {
	s.homeNb = append(s.homeNb[:0], homeNbs...)
	w := walkerCore{
		p:           p,
		s:           s,
		lnN:         lnOf(nPrime),
		deltaEst:    deltaEst,
		doubling:    doubling,
		nPrime:      nPrime,
		denseCounts: nPrime > 0 && nPrime <= denseIDLimit,
		home:        home,
		lastSeenID:  -1,
	}
	s.via.init(nPrime, 2*len(s.homeNb))
	s.ns.init(nPrime, 2*len(s.homeNb))
	s.npIdx.init(nPrime, len(s.homeNb)+1)
	s.npHomeL = append(s.npHomeL[:0], w.home)
	s.npHomeL = append(s.npHomeL, s.homeNb...)
	for i, id := range s.npHomeL {
		s.npIdx.set(id, int32(i))
	}
	if s.ret.Arm(graphStamp, home, len(s.npHomeL)) {
		s.resetOverlap(w.denseCounts, nPrime)
	}
	s.nsL = s.nsL[:0]
	s.lastSeenNb = s.lastSeenNb[:0]
	s.via.setIfMissing(w.home, w.home)
	for _, id := range s.homeNb {
		s.via.setIfMissing(id, id)
	}
	return w
}

// seenIDs copies the view's neighbor IDs into the seen buffer and
// returns it, valid until the next call. The agent-a machine calls it
// only on the rounds that walk the whole list (a memo miss, learn, the
// exact check, a fresh core); every other round reads no IDs.
func (s *walkerScratch) seenIDs(v *sim.View) []int64 {
	s.seen = v.AppendNeighborIDs(s.seen[:0])
	return s.seen
}

// alpha returns α = δ'/AlphaDen.
func (w *walkerCore) alpha() float64 { return w.deltaEst / w.p.AlphaDen }

// lightBound returns the exact-check lightness threshold δ'/LightDen.
func (w *walkerCore) lightBound() float64 { return w.deltaEst / w.p.LightDen }

// degreeViolates reports whether a visited vertex of the given degree
// violates the doubling-estimation invariant (§4.1).
func (w *walkerCore) degreeViolates(degree int) bool {
	return w.doubling && float64(degree) < w.deltaEst
}

// viaOf returns the first hop from home toward the known vertex
// target (possibly target itself when adjacent to home).
func (w *walkerCore) viaOf(target int64) (int64, bool) {
	return w.s.via.get(target)
}

// learn records x's full neighborhood (observed while standing on x)
// into NS^a, assigning via-vertices for the newly discovered vertices,
// and returns the list of vertices newly added to NS (the difference
// set N+(S ∪ {x}) \ N+(S)). The returned slice stays valid until the
// next learn call after it (the double buffer in s.diff).
func (w *walkerCore) learn(x int64, nbs []int64) []int64 {
	s := w.s
	s.diffCur ^= 1
	added := s.diff[s.diffCur][:0]
	add := func(id int64) {
		if s.ns.has(id) {
			return
		}
		s.ns.add(id)
		s.nsL = append(s.nsL, id)
		added = append(added, id)
		s.via.setIfMissing(id, x)
	}
	add(x)
	for _, id := range nbs {
		add(id)
	}
	s.diff[s.diffCur] = added
	return added
}

// noteLastSeen retains the observed neighborhood of the most recently
// visited candidate (the single-entry cache behind cachedNeighborhood).
func (w *walkerCore) noteLastSeen(self int64, nbs []int64) {
	w.lastSeenID = self
	w.s.lastSeenNb = append(w.s.lastSeenNb[:0], nbs...)
}

// cachedNeighborhood returns u's full neighbor list if u is home or the
// most recently visited candidate.
func (w *walkerCore) cachedNeighborhood(u int64) ([]int64, bool) {
	if u == w.home {
		return w.s.homeNb, true
	}
	if u == w.lastSeenID {
		return w.s.lastSeenNb, true
	}
	return nil, false
}

// memoryWords estimates the walker's state size in machine words:
// O(|NS| + ∆) = O(n), matching the paper's O(n log n)-bit claim. The
// dense idspace representations trade extra transient memory for
// speed; the estimate deliberately counts logical entries, i.e. the
// algorithm's information content. The return-port cache and the
// Sample overlap memo are simulator scratch derived from the graph,
// not agent memory, and are not counted.
func (w *walkerCore) memoryWords() int {
	s := w.s
	return len(s.homeNb) + len(s.npHomeL) + s.via.len() + len(s.nsL) + len(s.lastSeenNb)
}

func (w *walkerCore) countAgainstNS(self int64, nbs []int64) int {
	cnt := 0
	if w.s.ns.has(self) {
		cnt++
	}
	for _, id := range nbs {
		if w.s.ns.has(id) {
			cnt++
		}
	}
	return cnt
}

// The pure arithmetic of Algorithm 2, Sample(Γ, α), shared verbatim by
// the agent-a stepper and the Program reference's sampleRun so the two
// cannot diverge on a threshold.

// sampleSize returns the visit budget ⌈SampleMult·|Γ|·ln n / α⌉ (≥ 1).
func (w *walkerCore) sampleSize(gammaLen int, alpha float64) int {
	m := int(math.Ceil(w.p.SampleMult * float64(gammaLen) * w.lnN / alpha))
	if m < 1 {
		m = 1
	}
	return m
}

// sampleReset prepares the per-call visit counters. In dense mode
// (small ID space, like idspace.go) counters are indexed directly by
// vertex ID and only the N+(home) entries are ever read, so the reset
// clears exactly those (O(∆)). Slots at other IDs may hold garbage
// from earlier calls or from the over-cap observation loop;
// sampleHeavy never looks at them, and int32 wraparound on a
// never-read slot is harmless. In map mode counters live at each
// vertex's position in npHomeL. Either way the counter array is
// walker scratch: allocated once per worker, and both representations
// count identically.
func (w *walkerCore) sampleReset() {
	ws := w.s
	if w.denseCounts {
		if int64(cap(ws.counts)) < w.nPrime {
			ws.counts = make([]int32, w.nPrime)
		}
		ws.counts = ws.counts[:w.nPrime]
		for _, id := range ws.npHomeL {
			ws.counts[id] = 0
		}
		return
	}
	if cap(ws.counts) < len(ws.npHomeL) {
		ws.counts = make([]int32, len(ws.npHomeL))
	}
	ws.counts = ws.counts[:len(ws.npHomeL)]
	clear(ws.counts)
}

// sampleObserveHome credits a draw that landed on home: visiting home
// is free, and N+(home) ∩ N+(home) is everything.
func (w *walkerCore) sampleObserveHome() {
	ws := w.s
	if w.denseCounts {
		for _, id := range ws.npHomeL {
			ws.counts[id]++
		}
		return
	}
	for j := range ws.counts {
		ws.counts[j]++
	}
}

// sampleObserve credits one remote visit's observation (self plus its
// neighbor list) against the N+(home) counters. In dense mode the
// first visit to a vertex records which members of N+(home) it
// observes (memoOverlap), and every visit bumps just those counters —
// a handful, against deg(t)+1 for the plain loop, and each vertex of
// Γ is drawn several times per Sample and again in later trials from
// the same start. Past the memo's size cap the dense branch bumps
// every observed ID unconditionally: IDs outside N+(home) land on
// slots nothing reads. Both forms leave the N+(home) counters exactly
// equal. Map mode looks each observed ID up in npIdx.
//
// A caller that has to copy the neighbor list out first (the stepper
// reads it through the view) tries sampleObserveMemo alone and only
// copies on a miss; sampleObserve is that pair for a caller already
// holding the list.
func (w *walkerCore) sampleObserve(self int64, nbs []int64) {
	if !w.sampleObserveMemo(self) {
		w.sampleObserveList(self, nbs)
	}
}

// sampleObserveMemo credits a visit to self from the overlap memo and
// reports whether it could: false in map mode and when self has no
// memoized list yet. It never reads self's neighbor list.
func (w *walkerCore) sampleObserveMemo(self int64) bool {
	if !w.denseCounts {
		return false
	}
	list, ok := w.s.overlap(self)
	if ok {
		w.s.bumpOverlap(list)
	}
	return ok
}

// sampleObserveList is sampleObserve after a memo miss: memoize self's
// overlap if it fits, else count every observed ID.
func (w *walkerCore) sampleObserveList(self int64, nbs []int64) {
	ws := w.s
	if w.denseCounts {
		if list, ok := ws.memoOverlap(self, nbs, overlapMemoWords*int(w.nPrime)); ok {
			ws.bumpOverlap(list)
			return
		}
		ws.counts[self]++
		for _, u := range nbs {
			ws.counts[u]++
		}
		return
	}
	if j := ws.npIdx.get(self); j >= 0 {
		ws.counts[j]++
	}
	for _, u := range nbs {
		if j := ws.npIdx.get(u); j >= 0 {
			ws.counts[j]++
		}
	}
}

// bumpOverlap bumps the dense counters of one memoized overlap list,
// which runs to the next vertex's (negative) header.
func (ws *walkerScratch) bumpOverlap(list []int32) {
	for _, u := range list {
		if u < 0 {
			break
		}
		ws.counts[u]++
	}
}

// overlapMemoWords caps the overlap memo's list storage, headers
// included, at this many int32 words per ID of the space (16 bytes
// per ID; the ovAt index adds 4). A 128-trial noboard batch on
// planted(4096, 128) fills about 3.1 words per ID; on dense graphs
// such as Complete(256) the cap is reached after a few vertices and
// the plain loop takes over.
const overlapMemoWords = 4

// resetOverlap empties the overlap memo for a new (graph, home) key.
// Truncating ov invalidates every ovAt entry (see walkerScratch).
func (ws *walkerScratch) resetOverlap(dense bool, nPrime int64) {
	ws.ov = ws.ov[:0]
	if !dense {
		return
	}
	if int64(len(ws.ovAt)) != nPrime {
		ws.ovAt = make([]int32, nPrime)
	}
}

// overlap returns the memoized members of N+(home) ∩ N+(t), or ok =
// false if t has none yet. The list runs to the next negative header
// or the end of ov.
func (ws *walkerScratch) overlap(t int64) ([]int32, bool) {
	at := ws.ovAt[t]
	if at > 0 && int(at) <= len(ws.ov) && ws.ov[at-1] == ^int32(t) {
		return ws.ov[at:], true
	}
	return nil, false
}

// memoOverlap records the members of N+(home) among t and its
// neighbors, in observation order, and returns the new list — or ok =
// false, recording nothing, when it might not fit within limit words.
// ov grows to at most limit, so a warm memo allocates nothing.
func (ws *walkerScratch) memoOverlap(t int64, nbs []int64, limit int) ([]int32, bool) {
	need := len(ws.ov) + 2 + len(nbs)
	if need > limit {
		return nil, false
	}
	if need > cap(ws.ov) {
		grown := make([]int32, len(ws.ov), min(max(2*cap(ws.ov), need, 1024), limit))
		copy(grown, ws.ov)
		ws.ov = grown
	}
	ws.ov = append(ws.ov, ^int32(t))
	at := len(ws.ov)
	if ws.npIdx.get(t) >= 0 {
		ws.ov = append(ws.ov, int32(t))
	}
	for _, u := range nbs {
		if ws.npIdx.get(u) >= 0 {
			ws.ov = append(ws.ov, int32(u))
		}
	}
	ws.ovAt[t] = int32(at)
	return ws.ov[at:], true
}

// sampleHeavy scans the counters and returns the vertices whose count
// reached ℓ = ⌈HeavyThresholdMult·ln n⌉. The returned list is scratch:
// every caller consumes it before the next sample run (markHeavy
// immediately, or a copy for the Lemma-2 report).
func (w *walkerCore) sampleHeavy() []int64 {
	ws := w.s
	threshold := int32(math.Ceil(w.p.HeavyThresholdMult * w.lnN))
	heavy := ws.heavy[:0]
	if w.denseCounts {
		for _, u := range ws.npHomeL {
			if ws.counts[u] >= threshold {
				heavy = append(heavy, u)
			}
		}
		ws.heavy = heavy
		return heavy
	}
	for j, u := range ws.npHomeL {
		if ws.counts[j] >= threshold {
			heavy = append(heavy, u)
		}
	}
	ws.heavy = heavy
	return heavy
}

// The shared pure bookkeeping of Algorithm 3, Construct.

// resetHeavyMarks prepares the H classification array. inH is indexed
// by npHomeL position: heavy classification only ever applies to
// members of N+(home).
func (w *walkerCore) resetHeavyMarks() {
	ws := w.s
	if cap(ws.inH) < len(ws.npHomeL) {
		ws.inH = make([]bool, len(ws.npHomeL))
	}
	ws.inH = ws.inH[:len(ws.npHomeL)]
	clear(ws.inH)
}

// markHeavy records the given members of N+(home) as classified heavy.
func (w *walkerCore) markHeavy(ids []int64) {
	for _, u := range ids {
		w.s.inH[w.s.npIdx.get(u)] = true
	}
}

// markHeavyOne records a single exactly-verified heavy vertex.
func (w *walkerCore) markHeavyOne(u int64) {
	w.s.inH[w.s.npIdx.get(u)] = true
}

// candidates returns R, the members of N+(home) not yet classified
// heavy, into the cand scratch list.
func (w *walkerCore) candidates() []int64 {
	ws := w.s
	r := ws.cand[:0]
	for j, u := range ws.npHomeL {
		if !ws.inH[j] {
			r = append(r, u)
		}
	}
	ws.cand = r
	return r
}

// probeBudget returns the step-2 probe count ⌈ProbeMult·ln n⌉ (≥ 1).
func (w *walkerCore) probeBudget() int {
	probes := int(math.Ceil(w.p.ProbeMult * w.lnN))
	if probes < 1 {
		probes = 1
	}
	return probes
}
