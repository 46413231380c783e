package workpool

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestRunDispatchesEveryUnit(t *testing.T) {
	var (
		mu   sync.Mutex
		seen = map[int]int{}
	)
	err := Run(context.Background(), 17, 4, func(ctx context.Context, unit int) error {
		mu.Lock()
		seen[unit]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 17 {
		t.Fatalf("ran %d/17 units", len(seen))
	}
	for unit, n := range seen {
		if n != 1 {
			t.Fatalf("unit %d ran %d times", unit, n)
		}
	}
}

func TestRunFatalErrorCancelsPool(t *testing.T) {
	boom := errors.New("boom")
	err := Run(context.Background(), 64, 2, func(ctx context.Context, unit int) error {
		if unit == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
}

func TestShare(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		want     []int
	}{
		{10, 3, []int{4, 3, 3}},
		{3, 4, []int{1, 1, 1, 0}},
		{0, 2, []int{0, 0}},
	} {
		sum := 0
		for i := 0; i < tc.n; i++ {
			got := Share(tc.total, i, tc.n)
			if got != tc.want[i] {
				t.Fatalf("Share(%d, %d, %d) = %d, want %d", tc.total, i, tc.n, got, tc.want[i])
			}
			sum += got
		}
		if sum != tc.total {
			t.Fatalf("Share(%d, _, %d) sums to %d", tc.total, tc.n, sum)
		}
	}
}
