package vm

// Edge coverage for the fuzzing subsystem (internal/fuzz): an AFL-style
// fixed-size hit-count map the step loop folds prev-PC⊕PC edges into.
//
// Recording is off by default and costs the hot loop exactly one nil check
// when disabled — the dispatch path is otherwise unchanged, which the
// coverage tests assert by comparing instrumented and uninstrumented runs
// instruction for instruction. When enabled, each executed instruction
// records the branchless index (covPrev ^ RIP) & (CovMapSize-1) and then
// shifts RIP right by one into covPrev, so A→B and B→A land in different
// cells (the classic AFL trick).
//
// The map is sparse in use: a fork-server request runs a few hundred guest
// instructions and hits a few hundred of the 64 Ki buckets. So the map also
// lists the buckets it touched, and every per-execution cost — Reset, Edges,
// a consumer's merge — walks that list instead of the whole map.

// CovMapSize is the edge map size in bytes. A power of two: the edge index
// is masked, never reduced modulo.
const CovMapSize = 64 * 1024

// CovMap is a fixed 64 KiB edge-coverage map: one saturating 8-bit hit
// counter per edge hash bucket, plus the list of buckets hit since the last
// Reset. The zero value is ready to use. A CovMap is not safe for
// concurrent use; every fuzzing shard owns its own map, exactly like it owns
// its own machine.
type CovMap struct {
	hits [CovMapSize]byte
	// touched lists, in first-hit order, each bucket whose counter went
	// 0→1 since the last Reset — at most CovMapSize entries. Reset keeps
	// its capacity, so a steady-state execution appends without
	// allocating.
	touched []uint16
}

// Touched returns the buckets hit since the last Reset, each once, in
// first-hit order. The slice aliases the map's own list: it is valid until
// the next Reset or recorded edge, and callers must not modify it.
func (m *CovMap) Touched() []uint16 { return m.touched }

// Count returns bucket i's hit counter: 0 for an edge not run since the
// last Reset, saturating at 0xff.
func (m *CovMap) Count(i uint16) byte { return m.hits[i] }

// Hit counts one hit on bucket i, exactly as an executed edge hashing to i
// would. It lets test doubles of a coverage-producing victim fill a map.
func (m *CovMap) Hit(i uint16) {
	switch m.hits[i] {
	case 0:
		m.hits[i] = 1
		m.touched = append(m.touched, i)
	case 0xff:
	default:
		m.hits[i]++
	}
}

// Reset clears the counters of the buckets hit since the last Reset — the
// per-request reset of the fork-server fuzzing loop, proportional to the
// edges the request ran, not to the map size. No allocation.
func (m *CovMap) Reset() {
	for _, i := range m.touched {
		m.hits[i] = 0
	}
	m.touched = m.touched[:0]
}

// Edges counts buckets with at least one hit.
func (m *CovMap) Edges() int { return len(m.touched) }

// record folds the edge into the map with a saturating counter. Callers
// guard it with the nil check that is the whole cost of disabled coverage.
func (m *CovMap) record(prev, pc uint64) {
	m.Hit(uint16((prev ^ pc) & (CovMapSize - 1)))
}

// SetCoverage installs an edge-coverage map on the CPU (nil disables
// recording, the default). The previous-location state is reset, so the
// first recorded edge is (0 → RIP). Fork copies the CPU struct wholesale,
// which shares the installed map pointer with every child — the property the
// fork-server fuzzing loop builds on: install once on the parked parent,
// and each forked worker records into the same map.
func (c *CPU) SetCoverage(m *CovMap) {
	c.cov = m
	c.covPrev = 0
}

// Coverage returns the installed edge map (nil when recording is disabled).
func (c *CPU) Coverage() *CovMap { return c.cov }
