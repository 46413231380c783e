package daemon

import (
	"context"
	"os"
	"path/filepath"
	"testing"
)

// TestTenantChargeSameWholeOrLeased pins the one tenant-charging rule per
// workload kind: a scenario costs the same cycles_used whether it ran as a
// whole job or as shard jobs covering the same range.
func TestTenantChargeSameWholeOrLeased(t *testing.T) {
	attack := AttackParams{Scheme: "ssp", Budget: 256, Repeats: 4, Workers: 2, Seed: 5}
	load := LoadParams{App: "nginx-vuln", Scheme: "p-ssp", Arrivals: "poisson", Rate: 20,
		Mix:      []LoadClass{{Name: "benign", Weight: 3}, {Probe: "adaptive", Weight: 1}},
		Requests: 64, Shards: 4, Workers: 2, Seed: 5}
	fuzz := FuzzParams{App: "nginx-vuln", Scheme: "ssp", Execs: 256, Shards: 4, Workers: 2, Seed: 5}
	cases := []struct {
		whole, shard string
		params       any
		lease        func(lo, hi int) any
	}{
		{"attack", "campaignshard", attack, func(lo, hi int) any {
			return CampaignShardParams{AttackParams: attack, Lo: lo, Hi: hi}
		}},
		{"loadtest", "loadshard", load, func(lo, hi int) any {
			return LoadShardParams{LoadParams: load, Lo: lo, Hi: hi}
		}},
		{"fuzz", "fuzzshard", fuzz, func(lo, hi int) any {
			return FuzzShardParams{FuzzParams: fuzz, Lo: lo, Hi: hi}
		}},
	}
	for _, c := range cases {
		t.Run(c.whole, func(t *testing.T) {
			d := New(Config{})
			defer d.Shutdown(context.Background())
			ctx := context.Background()
			if _, err := d.Do(ctx, "whole", c.whole, c.params, nil); err != nil {
				t.Fatal(err)
			}
			for lo := 0; lo < 4; lo += 2 {
				if _, err := d.Do(ctx, "leased", c.shard, c.lease(lo, lo+2), nil); err != nil {
					t.Fatal(err)
				}
			}
			used := map[string]uint64{}
			for _, ts := range d.Stats().Tenants {
				used[ts.Name] = ts.CyclesUsed
			}
			if used["whole"] == 0 || used["whole"] != used["leased"] {
				t.Errorf("cycles_used: whole job %d, shard jobs %d", used["whole"], used["leased"])
			}
		})
	}
}

// TestFuzzShardWritesNoClientPath pins that a fuzzshard lease never writes
// to a client-named path: a persistent corpus is folded only where the
// partials merge, so a worker ignores a corpus_dir field instead of
// creating the directory and writing inputs into it.
func TestFuzzShardWritesNoClientPath(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "corpus")
	d := New(Config{})
	defer d.Shutdown(context.Background())
	lease := map[string]any{
		"app": "nginx-vuln", "scheme": "ssp", "execs": 64, "shards": 2, "seed": 5,
		"lo": 0, "hi": 2, "corpus_dir": dir,
	}
	if _, err := d.Do(context.Background(), "t", "fuzzshard", lease, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("fuzzshard lease touched the client-named path %s (stat: %v)", dir, err)
	}
}
