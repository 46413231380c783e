package pssp_test

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/pssp"
)

// TestStoreHitBitIdentity is the store's core contract: a store-hit boot is
// byte-for-byte the same machine as a cold compile, under every execution
// engine and through every serving tier — cold populate, in-process memory
// hit, and (via a fresh handle on the same directory) the mmap'd disk path.
// Image bytes, run results, and output must all be identical.
func TestStoreHitBitIdentity(t *testing.T) {
	ctx := context.Background()
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()

			type outcome struct {
				img           []byte
				exit          uint64
				cycles, insts uint64
				out           string
			}
			boot := func(st *pssp.Store) outcome {
				t.Helper()
				opts := append(e.opts(), pssp.WithSeed(7), pssp.WithScheme(pssp.SchemePSSP))
				if st != nil {
					opts = append(opts, pssp.WithStore(st))
				}
				m := pssp.NewMachine(opts...)
				img, err := m.Pipeline().CompileApp("401.bzip2").Image()
				if err != nil {
					t.Fatal(err)
				}
				res, err := m.Run(ctx, img)
				if err != nil {
					t.Fatal(err)
				}
				return outcome{img.Marshal(), res.ExitCode, res.Cycles, res.Insts, string(res.Output)}
			}

			cold := boot(nil)

			st, err := pssp.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			populate := boot(st) // miss: compiles and writes the blob
			memHit := boot(st)   // in-process tier
			if s := st.Stats(); s.Misses == 0 || s.MemHits == 0 {
				t.Fatalf("stats %+v: want at least one miss and one memory hit", s)
			}
			st.Close()

			// Fresh handle, same directory: the image now comes off the
			// mmap'd blob, zero-copy.
			st2, err := pssp.OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			mmapHit := boot(st2)
			if s := st2.Stats(); s.DiskHits == 0 || s.Misses != 0 {
				t.Fatalf("stats %+v: want a pure disk hit", s)
			}

			for name, got := range map[string]outcome{"populate": populate, "memhit": memHit, "mmaphit": mmapHit} {
				if !bytes.Equal(got.img, cold.img) {
					t.Errorf("%s image differs from cold compile (%d vs %d bytes)", name, len(got.img), len(cold.img))
				}
				if got.exit != cold.exit || got.cycles != cold.cycles ||
					got.insts != cold.insts || got.out != cold.out {
					t.Errorf("%s run diverged: %+v, want %+v", name, got, cold)
				}
			}
			st2.Close()
		})
	}
}

// TestStoreHitReportIdentity asserts the -json report shapes downstream of a
// boot — the fuzz report and the attack campaign result — are byte-identical
// between cold-compile and store-hit boots, including a store handle reopened
// onto existing blobs (the cross-process resume path).
func TestStoreHitReportIdentity(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	run := func(st *pssp.Store) (fuzzJSON, attackJSON []byte) {
		t.Helper()
		opts := []pssp.Option{pssp.WithSeed(2018), pssp.WithScheme(pssp.SchemeSSP), pssp.WithAttackBudget(3000)}
		if st != nil {
			opts = append(opts, pssp.WithStore(st))
		}
		m := pssp.NewMachine(opts...)
		img, err := m.Pipeline().CompileApp("nginx-vuln").Image()
		if err != nil {
			t.Fatal(err)
		}
		frep, err := m.Fuzz(ctx, img, pssp.FuzzConfig{Execs: 256, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		fj, err := json.Marshal(frep)
		if err != nil {
			t.Fatal(err)
		}
		ares, err := m.Campaign(ctx, img, pssp.CampaignConfig{Replications: 2})
		if err != nil {
			t.Fatal(err)
		}
		aj, err := json.Marshal(ares)
		if err != nil {
			t.Fatal(err)
		}
		return fj, aj
	}

	coldFuzz, coldAttack := run(nil)

	st, err := pssp.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	popFuzz, popAttack := run(st)
	st.Close()

	st2, err := pssp.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hitFuzz, hitAttack := run(st2)
	if s := st2.Stats(); s.DiskHits == 0 {
		t.Fatalf("stats %+v: reopened store never hit disk", s)
	}

	for name, pair := range map[string][2][]byte{
		"populate fuzz":  {popFuzz, coldFuzz},
		"populate att":   {popAttack, coldAttack},
		"store-hit fuzz": {hitFuzz, coldFuzz},
		"store-hit att":  {hitAttack, coldAttack},
	} {
		if !bytes.Equal(pair[0], pair[1]) {
			t.Errorf("%s report is not byte-identical to the cold run:\n%s\nvs\n%s", name, pair[0], pair[1])
		}
	}
}

// TestStoreSharedAcrossMachines attaches one store to many machines and
// compiles the same app from each: one build, the rest hits, all images
// byte-identical.
func TestStoreSharedAcrossMachines(t *testing.T) {
	st, err := pssp.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var want []byte
	for i := 0; i < 4; i++ {
		m := pssp.NewMachine(pssp.WithScheme(pssp.SchemePSSP), pssp.WithStore(st))
		img, err := m.Pipeline().CompileApp("nginx-vuln").Image()
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = img.Marshal()
			continue
		}
		if !bytes.Equal(img.Marshal(), want) {
			t.Fatalf("machine %d compiled a different image", i)
		}
	}
	s := st.Stats()
	if s.Hits == 0 {
		t.Fatalf("stats %+v: shared store never hit", s)
	}
}
