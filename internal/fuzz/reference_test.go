package fuzz

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/rng"
	"repro/internal/vm"
)

// The reference implementations below are the engine's earlier, simpler
// forms: a dense coverage merge over every bucket and an allocating
// mutator. The differential tests hold the sparse merge and the in-place
// mutator to them, result for result and byte for byte.

// refMergeCov scans all vm.CovMapSize buckets.
func refMergeCov(virgin []byte, cov *vm.CovMap) int {
	news := 0
	for i := range vm.CovMapSize {
		n := cov.Count(uint16(i))
		if n == 0 {
			continue
		}
		if b := bucket(n); virgin[i]&b == 0 {
			virgin[i] |= b
			news++
		}
	}
	return news
}

// refMutator builds every mutant and every block in fresh memory.
type refMutator struct {
	r    *rng.Source
	dict [][]byte
	max  int
}

func (m *refMutator) mutate(parent []byte, corpus [][]byte) []byte {
	out := append(make([]byte, 0, len(parent)+16), parent...)
	for n := 1 << m.r.Intn(4); n > 0; n-- {
		out = m.op(out, corpus)
	}
	if len(out) == 0 {
		out = []byte{0}
	}
	if len(out) > m.max {
		out = out[:m.max]
	}
	return out
}

func (m *refMutator) op(out []byte, corpus [][]byte) []byte {
	switch m.r.Intn(10) {
	case 0:
		if len(out) > 0 {
			bit := m.r.Intn(len(out) * 8)
			out[bit/8] ^= 1 << (bit % 8)
		}
	case 1:
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = interesting8[m.r.Intn(len(interesting8))]
		}
	case 2:
		if len(out) >= 2 {
			binary.LittleEndian.PutUint16(out[m.r.Intn(len(out)-1):],
				interesting16[m.r.Intn(len(interesting16))])
		}
	case 3:
		if len(out) > 0 {
			delta := byte(1 + m.r.Intn(35))
			if m.r.Intn(2) == 0 {
				delta = -delta
			}
			out[m.r.Intn(len(out))] += delta
		}
	case 4:
		if len(out) > 0 {
			out[m.r.Intn(len(out))] = byte(m.r.Intn(256))
		}
	case 5:
		if len(out) > 1 {
			n := 1 + m.r.Intn(len(out)/2)
			pos := m.r.Intn(len(out) - n + 1)
			out = append(out[:pos], out[pos+n:]...)
		}
	case 6:
		if len(out) > 0 {
			n := 1 + m.r.Intn(len(out))
			pos := m.r.Intn(len(out) - n + 1)
			block := append([]byte(nil), out[pos:pos+n]...)
			at := m.r.Intn(len(out) + 1)
			out = append(out[:at], append(block, out[at:]...)...)
		}
	case 7:
		n := 1 << m.r.Intn(5)
		block := make([]byte, n)
		m.r.Bytes(block)
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = append(out[:at], append(block, out[at:]...)...)
	case 8:
		var tok []byte
		if len(m.dict) > 0 {
			tok = m.dict[m.r.Intn(len(m.dict))]
		} else {
			tok = make([]byte, 1<<m.r.Intn(5))
			m.r.Bytes(tok)
		}
		at := 0
		if len(out) > 0 {
			at = m.r.Intn(len(out) + 1)
		}
		out = append(out[:at], append(append([]byte(nil), tok...), out[at:]...)...)
	case 9:
		other := out
		if len(corpus) > 0 {
			if o := corpus[m.r.Intn(len(corpus))]; len(o) > 0 {
				other = o
			}
		}
		if len(out) > 0 && len(other) > 0 {
			head := out[:m.r.Intn(len(out))]
			tail := other[m.r.Intn(len(other)):]
			out = append(append([]byte(nil), head...), tail...)
		}
	}
	return out
}

// randBytes returns n bytes drawn from r.
func randBytes(r *rng.Source, n int) []byte {
	b := make([]byte, n)
	r.Bytes(b)
	return b
}

// TestMergeCovMatchesDense: on random hit maps and random frontiers, the
// sparse merge reports the same news count and leaves the same frontier as
// the dense scan.
func TestMergeCovMatchesDense(t *testing.T) {
	r := rng.New(2018)
	var cov vm.CovMap
	for trial := 0; trial < 300; trial++ {
		cov.Reset()
		for n := r.Intn(2048); n > 0; n-- {
			i := uint16(r.Intn(vm.CovMapSize))
			if r.Intn(4) == 0 {
				i %= 64 // a hot set, so counts reach every bucket class
			}
			for k := 1 + r.Intn(300); k > 0 && r.Intn(3) != 0; k-- {
				cov.Hit(i)
			}
			cov.Hit(i)
		}
		virgin := make([]byte, vm.CovMapSize)
		switch trial % 3 {
		case 1: // a charted frontier
			r.Bytes(virgin)
		case 2: // a sparse one
			for n := r.Intn(4096); n > 0; n-- {
				virgin[r.Intn(vm.CovMapSize)] = byte(r.Intn(256))
			}
		}
		ref := append([]byte(nil), virgin...)
		got, want := mergeCov(virgin, &cov), refMergeCov(ref, &cov)
		if got != want {
			t.Fatalf("trial %d: news %d, dense %d", trial, got, want)
		}
		if !bytes.Equal(virgin, ref) {
			t.Fatalf("trial %d: frontiers differ", trial)
		}
	}
}

// TestMergeWordsMatchBytes: the word-at-a-time union and edge count of the
// cross-shard merge equal their byte loops, on lengths with and without a
// tail.
func TestMergeWordsMatchBytes(t *testing.T) {
	r := rng.New(7)
	// sparse fills b with random bytes, keeping each with probability
	// about keep/256 and zeroing the rest.
	sparse := func(b []byte, keep byte) {
		r.Bytes(b)
		for i, v := range b {
			if v >= keep {
				b[i] = 0
			}
		}
	}
	for trial := 0; trial < 60; trial++ {
		n := vm.CovMapSize
		if trial%2 == 1 {
			n = r.Intn(100)
		}
		dst, src := make([]byte, n), make([]byte, n)
		sparse(dst, byte(r.Intn(256)))
		sparse(src, byte(r.Intn(16)))
		want := append([]byte(nil), dst...)
		for i, v := range src {
			want[i] |= v
		}
		orWords(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("trial %d: orWords differs from the byte loop", trial)
		}
		nz := 0
		for _, v := range want {
			if v != 0 {
				nz++
			}
		}
		if got := nonzeroBytes(dst); got != nz {
			t.Fatalf("trial %d: nonzeroBytes = %d, want %d", trial, got, nz)
		}
	}
}

// TestMutatorMatchesReference draws 120k mutants from the in-place mutator
// and the allocating reference on the same stream and requires them
// byte-equal, over random parents, corpora (empty entries included, which
// force self-splices), length caps, and with and without a dictionary.
// Neither parent nor corpus may change, and both streams must end in step.
func TestMutatorMatchesReference(t *testing.T) {
	const draws = 120_000
	gen := rng.New(99)
	done := 0
	for batch := 0; done < draws; batch++ {
		var dict [][]byte
		if batch%2 == 0 {
			for n := 1 + gen.Intn(4); n > 0; n-- {
				dict = append(dict, randBytes(gen, 1+gen.Intn(12)))
			}
		}
		maxLen := 1 + gen.Intn(1100)
		if batch%5 == 0 {
			maxLen = 1024
		}
		var corpus [][]byte
		for n := gen.Intn(6); n > 0; n-- {
			corpus = append(corpus, randBytes(gen, gen.Intn(80)))
		}
		snapshot := make([][]byte, len(corpus))
		for i, c := range corpus {
			snapshot[i] = append([]byte(nil), c...)
		}
		m := &mutator{r: rng.NewStream(uint64(batch), 0), dict: dict, max: maxLen}
		ref := &refMutator{r: rng.NewStream(uint64(batch), 0), dict: dict, max: maxLen}
		for k := 0; k < 500; k++ {
			parent := randBytes(gen, 1+gen.Intn(1200))
			if len(corpus) > 0 && gen.Intn(2) == 0 {
				parent = corpus[gen.Intn(len(corpus))]
			}
			before := append([]byte(nil), parent...)
			got := m.mutate(parent, corpus)
			want := ref.mutate(parent, corpus)
			if !bytes.Equal(got, want) {
				t.Fatalf("batch %d draw %d: mutant differs from the reference:\n got %x\nwant %x", batch, k, got, want)
			}
			if !bytes.Equal(parent, before) {
				t.Fatalf("batch %d draw %d: parent modified", batch, k)
			}
			done++
		}
		for i := range corpus {
			if !bytes.Equal(corpus[i], snapshot[i]) {
				t.Fatalf("batch %d: corpus entry %d modified", batch, i)
			}
		}
		if a, b := m.r.Uint64(), ref.r.Uint64(); a != b {
			t.Fatalf("batch %d: streams out of step", batch)
		}
	}
}
