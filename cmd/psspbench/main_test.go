package main

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestCheckCounts: the flag defaults and any positive count pass; a
// non-positive count (or a negative worker count) is refused by name before
// any experiment runs.
func TestCheckCounts(t *testing.T) {
	defaults := harness.Config{
		WebRequests:  64,
		DBQueries:    16,
		AttackBudget: 4096,
		AttackReps:   2,
		LoadRequests: 96,
		LoadClients:  8,
	}
	if err := checkCounts(defaults); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
	ok := defaults
	ok.WebRequests, ok.DBQueries, ok.Workers = 1, 1, 3
	if err := checkCounts(ok); err != nil {
		t.Fatalf("positive counts rejected: %v", err)
	}
	for _, c := range []struct {
		flag string
		set  func(*harness.Config)
	}{
		{"-requests", func(c *harness.Config) { c.WebRequests = -5 }},
		{"-requests", func(c *harness.Config) { c.WebRequests = 0 }},
		{"-queries", func(c *harness.Config) { c.DBQueries = -3 }},
		{"-budget", func(c *harness.Config) { c.AttackBudget = 0 }},
		{"-attack-reps", func(c *harness.Config) { c.AttackReps = -1 }},
		{"-load-requests", func(c *harness.Config) { c.LoadRequests = 0 }},
		{"-load-clients", func(c *harness.Config) { c.LoadClients = -8 }},
		{"-workers", func(c *harness.Config) { c.Workers = -1 }},
	} {
		cfg := defaults
		c.set(&cfg)
		err := checkCounts(cfg)
		if err == nil || !strings.HasPrefix(err.Error(), c.flag+" ") {
			t.Errorf("%s: err = %v, want a %s error", c.flag, err, c.flag)
		}
	}
}
