// Package lockedcallback is a golden-test fixture for the
// lockedcallback check.
package lockedcallback

import "sync"

// Bus is a fan-out component: stored subscribers, a single callback
// field, and a notification channel, all guarded by mutexes.
type Bus struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	subs []func(int)
	cb   func()
	ch   chan int
}

// EmitBad fans out to subscribers while still holding the lock — the
// exact deadlock-and-reentrancy hazard the collector's scrape hooks
// avoid.
func (b *Bus) EmitBad(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, fn := range b.subs {
		fn(v) // want `calls stored callback "fn" while b\.mu is held`
	}
}

// NotifyBad invokes a callback field under the lock.
func (b *Bus) NotifyBad() {
	b.mu.Lock()
	b.cb() // want `calls stored callback "cb" while b\.mu is held`
	b.mu.Unlock()
}

// IndexBad invokes a subscriber by index under the lock.
func (b *Bus) IndexBad(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[0](v) // want `calls stored callback .* while b\.mu is held`
}

// SendBad sends on a channel while holding a read lock.
func (b *Bus) SendBad(v int) {
	b.rw.RLock()
	b.ch <- v // want `channel send while b\.rw is held`
	b.rw.RUnlock()
}

// DoBad runs a caller-provided callback inside the critical section.
func (b *Bus) DoBad(f func()) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f() // want `calls caller-provided callback "f" while b\.mu is held`
}

// SendOK is the documented shutdown-protocol exception.
func (b *Bus) SendOK(v int) {
	b.rw.RLock()
	//lint:ignore lockedcallback fixture: send progress is guaranteed by the shutdown protocol, receiver never blocks on this lock
	b.ch <- v
	b.rw.RUnlock()
}

// EmitGood snapshots under the lock and invokes outside it: the
// sanctioned pattern of tsdb.Collector.Scrape's hooks.
func (b *Bus) EmitGood(v int) {
	b.mu.Lock()
	subs := append(make([]func(int), 0, len(b.subs)), b.subs...)
	b.mu.Unlock()
	for _, fn := range subs {
		fn(v)
	}
}

// InlineGood calls a locally defined closure under the lock — that is
// the component's own code, not a stored callback.
func (b *Bus) InlineGood() {
	b.mu.Lock()
	defer b.mu.Unlock()
	bump := func() {}
	bump()
}

// SendAfterUnlock releases before sending: fine.
func (b *Bus) SendAfterUnlock(v int) {
	b.mu.Lock()
	b.mu.Unlock()
	b.ch <- v
}
