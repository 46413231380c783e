package fuzz

import (
	"context"
	"errors"
	"testing"

	"repro/internal/vm"
)

// TestRunShardsReturnsPartialsOnCancel: a canceled lease still ships the
// shards it ran, so a whole run (RunShards over [0,n)) and a fabric lease
// keep their cancel-with-partial semantics.
func TestRunShardsReturnsPartialsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	boot := func(context.Context, int) (Executor, error) {
		return executorFunc(func(c context.Context, input []byte) (Exec, *vm.CovMap, error) {
			if calls++; calls > 50 {
				cancel()
			}
			if err := c.Err(); err != nil {
				return Exec{}, nil, err
			}
			ft := fakeTarget{bufLen: 1 << 20}
			return ft.Execute(c, input)
		}), nil
	}
	cfg := Config{Seeds: [][]byte{[]byte("x")}, Execs: 100000, Shards: 4, Workers: 1, Seed: 1}
	parts, err := RunShards(ctx, cfg, boot, 2, 4)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(parts) == 0 || parts[0].Execs == 0 {
		t.Fatalf("no partial shipped on cancellation: %+v", parts)
	}
	for _, p := range parts {
		if !p.Fits(cfg, 2, 4) {
			t.Errorf("partial for shard %d outside lease [2,4)", p.Shard)
		}
	}
}
