package repro

// Micro-benchmark of the content-addressed artifact store (internal/store):
// the cost of producing a bootable image cold (full compile from IR), from a
// warm store's in-process tier, and from an mmap'd on-disk blob through a
// fresh store handle — the daemon-restart / second-process path.

import (
	"testing"

	"repro/pssp"
)

// BenchmarkStoreBoot measures image acquisition for the nginx analog under
// P-SSP — the phase the store exists to eliminate; the fork-server boot that
// follows it is byte-identical work on every path and is benchmarked
// separately (BenchmarkForkServerRequest). Sub-benchmarks:
//
//	coldcompile  no store: every iteration compiles from IR
//	storehit     warm store handle: the in-process LRU serves the image
//	mmaphit      fresh store handle per iteration: the blob is mapped,
//	             checksum-verified, and parsed zero-copy from disk
func BenchmarkStoreBoot(b *testing.B) {
	image := func(b *testing.B, st *pssp.Store) {
		b.Helper()
		m := pssp.NewMachine(pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP), pssp.WithStore(st))
		if _, err := m.Pipeline().CompileApp("nginx").Image(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("coldcompile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			image(b, nil)
		}
	})

	b.Run("storehit", func(b *testing.B) {
		st, err := pssp.OpenStore(b.TempDir())
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		image(b, st) // populate
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			image(b, st)
		}
	})

	b.Run("mmaphit", func(b *testing.B) {
		dir := b.TempDir()
		st, err := pssp.OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		image(b, st) // populate the blob
		st.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := pssp.OpenStore(dir)
			if err != nil {
				b.Fatal(err)
			}
			image(b, st)
			b.StopTimer()
			// Nothing booted from this handle is live once image returns,
			// so unmapping is safe; teardown stays off the clock.
			st.Close()
			b.StartTimer()
		}
	})
}
