package fuzz

import (
	"encoding/binary"

	"repro/internal/rng"
)

// The deterministic mutation engine: AFL's classic havoc repertoire —
// bitflips, interesting values, bounded arithmetic, block deletion /
// duplication / insertion, dictionary tokens, and corpus splicing — with
// every choice drawn from the shard's rng.Source. Same source state, same
// parent, same corpus ⇒ same mutant, which is what makes the whole fuzzing
// run replayable from one seed.

// interesting8 and interesting16 are the boundary values AFL plants: min,
// max, off-by-one and size-looking constants that trip length checks.
var interesting8 = []byte{0, 1, 16, 32, 64, 100, 127, 128, 255}

var interesting16 = []uint16{0, 1, 16, 64, 128, 255, 256, 512, 1000, 1024, 4096, 32767, 65535}

// mutator owns one shard's mutation state. It builds every mutant in buf
// and stages copied blocks in scratch, both reused across mutants, so a
// steady-state mutation allocates nothing.
type mutator struct {
	r    *rng.Source
	dict [][]byte
	max  int

	buf, scratch []byte
}

// mutate derives one mutant from parent: a havoc pass of 1..8 stacked
// operations, length-capped at max and never empty. The mutant aliases the
// mutator's buffer: it is valid until the next call, so a caller keeping it
// copies it. parent and corpus must not alias that buffer.
func (m *mutator) mutate(parent []byte, corpus [][]byte) []byte {
	out := append(m.buf[:0], parent...)
	for n := 1 << m.r.Intn(4); n > 0; n-- {
		out = m.op(out, corpus)
	}
	m.buf = out
	if len(out) == 0 {
		out = append(out, 0)
	}
	if len(out) > m.max {
		out = out[:m.max]
	}
	return out
}

// insert splices block into out at position at, in place when out has the
// capacity. block must not alias out.
func insert(out []byte, at int, block []byte) []byte {
	n := len(out)
	out = append(out, block...)
	copy(out[at+len(block):], out[at:n])
	copy(out[at:], block)
	return out
}

// op applies one havoc operation.
func (m *mutator) op(out []byte, corpus [][]byte) []byte {
	switch m.r.Intn(10) {
	case 0: // flip one bit
		if len(out) > 0 {
			bit := m.r.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		}
	case 1: // plant an interesting byte
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = interesting8[m.r.Intn(len(interesting8))]
		}
	case 2: // plant an interesting 16-bit word (little-endian)
		if len(out) >= 2 {
			binary.LittleEndian.PutUint16(out[m.r.Intn(len(out)-1):],
				interesting16[m.r.Intn(len(interesting16))])
		}
	case 3: // bounded byte arithmetic
		if len(out) > 0 {
			delta := byte(1 + m.r.Intn(35))
			if m.r.Intn(2) == 0 {
				delta = -delta
			}
			out[m.r.Intn(len(out))] += delta
		}
	case 4: // overwrite a byte with a random value
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = byte(m.r.Intn(256))
		}
	case 5: // delete a block
		if len(out) > 1 {
			n := 1 + m.r.Intn(len(out)/2)
			pos := m.r.Intn(len(out) - n + 1)
			out = append(out[:pos], out[pos+n:]...)
		}
	case 6: // duplicate a block in place (grows the input)
		if len(out) > 0 {
			n := 1 + m.r.Intn(len(out))
			pos := m.r.Intn(len(out) - n + 1)
			m.scratch = append(m.scratch[:0], out[pos:pos+n]...)
			out = insert(out, m.r.Intn(len(out)+1), m.scratch)
		}
	case 7: // insert a block of random bytes (grows the input)
		var block [16]byte
		n := 1 << m.r.Intn(5) // 1..16
		m.r.Bytes(block[:n])
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = insert(out, at, block[:n])
	case 8: // insert a dictionary token (no dictionary: a random block)
		var block [16]byte
		var tok []byte
		if len(m.dict) > 0 {
			tok = m.dict[m.r.Intn(len(m.dict))]
		} else {
			tok = block[:1<<m.r.Intn(5)]
			m.r.Bytes(tok)
		}
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = insert(out, at, tok)
	case 9: // splice with another corpus entry (none usable: self-splice)
		other := out
		if len(corpus) > 0 {
			if o := corpus[m.r.Intn(len(corpus))]; len(o) > 0 {
				other = o
			}
		}
		if len(out) > 0 && len(other) > 0 {
			// other may be out itself, whose bytes the append overwrites,
			// so the tail is staged in scratch first.
			head := m.r.Intn(len(out))
			m.scratch = append(m.scratch[:0], other[m.r.Intn(len(other)):]...)
			out = append(out[:head], m.scratch...)
		}
	}
	return out
}
