// Package lockorder exercises the lockorder analyzer: missing-unlock paths
// and inconsistent acquisition order, next to the clean idioms (defer
// unlock, unlock-and-early-return) it must accept.
package lockorder

import (
	"sync"
	"sync/atomic"
)

type guarded struct {
	mu sync.Mutex
	n  int
}

type pair struct {
	a sync.Mutex
	b sync.Mutex
}

func missingUnlockOnReturn(g *guarded) int {
	g.mu.Lock()
	if g.n > 0 {
		return g.n // want `return while lockorder\.guarded\.mu is held`
	}
	g.mu.Unlock()
	return 0
}

func forgottenUnlock(g *guarded) {
	g.mu.Lock() // want `lockorder\.guarded\.mu is still held when the function returns`
	g.n++
}

func deferred(g *guarded) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

func earlyReturn(g *guarded) int {
	g.mu.Lock()
	if g.n > 0 {
		g.mu.Unlock()
		return g.n
	}
	g.mu.Unlock()
	return 0
}

func lockAB(p *pair) {
	p.a.Lock()
	p.b.Lock() // want `inconsistent lock order: lockorder\.pair\.b acquired while holding lockorder\.pair\.a`
	p.b.Unlock()
	p.a.Unlock()
}

func lockBA(p *pair) {
	p.b.Lock()
	p.a.Lock()
	p.a.Unlock()
	p.b.Unlock()
}

// published is the shape of a value readers load without a lock and
// writers replace under a writer-only mutex (inano.Client's engine).
type published struct {
	wmu sync.Mutex
	cur atomic.Pointer[int]
}

func (p *published) read() int { return *p.cur.Load() }

func (p *published) write(n int) {
	p.wmu.Lock()
	defer p.wmu.Unlock()
	next := *p.cur.Load() + n
	p.cur.Store(&next)
}

func (p *published) writeLeaks(n int) bool {
	p.wmu.Lock()
	if n < 0 {
		return false // want `return while lockorder\.published\.wmu is held`
	}
	next := *p.cur.Load() + n
	p.cur.Store(&next)
	p.wmu.Unlock()
	return true
}
