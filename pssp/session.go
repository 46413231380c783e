package pssp

import (
	"context"

	"repro/internal/workpool"
)

// Session is one independently running Machine with a stable identity
// inside a concurrent batch. Machines are fully self-contained (kernel,
// CPU, entropy source), so any number of Sessions run in parallel without
// shared state; the harness uses this to execute the paper's table drivers
// and multi-process workloads concurrently.
type Session struct {
	id int
	m  *Machine
}

// ID returns the session's index within its batch, 0-based.
func (s *Session) ID() int { return s.id }

// Machine returns the session's private machine.
func (s *Session) Machine() *Machine { return s.m }

// RunSessions runs fn on n concurrent Sessions, each owning a freshly built
// Machine, and waits for all of them. optsFor supplies each session's
// machine options by id; when nil, session i gets WithSeed(i+1) so the
// sessions draw from distinct deterministic entropy streams.
//
// The sessions are the units of one workpool.Run with a worker each: the
// first error cancels the context passed to every other session's fn and
// is returned after all of them finish. A canceled parent ctx stops the
// batch the same way and is returned as ctx.Err().
func RunSessions(ctx context.Context, n int, optsFor func(id int) []Option, fn func(ctx context.Context, s *Session) error) error {
	if optsFor == nil {
		optsFor = func(id int) []Option {
			return []Option{WithSeed(uint64(id) + 1)}
		}
	}
	return workpool.Run(ctx, n, n, func(ctx context.Context, id int) error {
		return fn(ctx, &Session{id: id, m: NewMachine(optsFor(id)...)})
	})
}
