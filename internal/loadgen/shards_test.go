package loadgen

import (
	"context"
	"errors"
	"testing"
)

// TestRunShardsReturnsPartialsOnCancel: a canceled lease still ships the
// shards it ran, so a whole run (RunShards over [0,n)) and a fabric lease
// keep their cancel-with-partial semantics.
func TestRunShardsReturnsPartialsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := 0
	boot := func(context.Context, int) (Server, error) {
		return serverFunc(func(ctx context.Context, req []byte) (Outcome, error) {
			if served++; served == 100 {
				cancel()
			}
			if err := ctx.Err(); err != nil {
				return Outcome{}, err
			}
			return Outcome{Cycles: 10}, nil
		}), nil
	}
	cfg := Config{
		Mix:      []Class{{Name: "b", Weight: 1, Payload: []byte("x")}},
		Arrivals: Arrivals{Kind: OpenUniform, RatePerMcycle: 100},
		Requests: 1 << 20,
		Shards:   4,
		Workers:  1,
		Seed:     1,
	}
	parts, err := RunShards(ctx, cfg, boot, 1, 3)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(parts) == 0 || parts[0].Requests == 0 {
		t.Fatalf("no partial shipped on cancellation: %+v", parts)
	}
	for _, p := range parts {
		if !p.Fits(cfg, 1, 3) {
			t.Errorf("partial for shard %d outside lease [1,3)", p.Shard)
		}
	}
}
