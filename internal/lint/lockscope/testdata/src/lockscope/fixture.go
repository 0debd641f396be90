// Fixture for the lockscope analyzer: blocking operations under a
// guarded struct's mutex. Prepared is a stand-in for the engine's
// guarded handle (guarded structs are matched by bare type name).
package fixture

import (
	"os"
	"sync"
	"time"
)

type Prepared struct {
	writer sync.Mutex // serialises writers only; exempt by name
	mu     sync.RWMutex
	n      int
	log    *os.File
}

// WriterOnly blocks under the writers' mutex, which no reader takes:
// clean. The same send under the lock readers share is not.
func (p *Prepared) WriterOnly(ch chan int) {
	p.writer.Lock()
	defer p.writer.Unlock()
	ch <- p.n
	p.log.Sync()
	p.mu.Lock()
	ch <- p.n // want `channel send while holding Prepared lock`
	p.mu.Unlock()
	ch <- p.n
}

// Yield hands a caller-supplied callback control under the read lock —
// the iterate-under-RLock re-entrancy deadlock.
func (p *Prepared) Yield(yield func(int) bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	yield(p.n) // want `call to caller-supplied function yield while holding Prepared lock`
}

// Send performs a channel send under the lock.
func (p *Prepared) Send(ch chan int) {
	p.mu.Lock()
	ch <- p.n // want `channel send while holding Prepared lock`
	p.mu.Unlock()
}

// AfterUnlock releases first: clean.
func (p *Prepared) AfterUnlock(ch chan int) {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	ch <- p.n
}

// EarlyReturn unlocks on the error path only; the fall-through still
// holds the lock.
func (p *Prepared) EarlyReturn(bad bool, ch chan int) {
	p.mu.Lock()
	if bad {
		p.mu.Unlock()
		return
	}
	ch <- p.n // want `channel send while holding Prepared lock`
	p.mu.Unlock()
}

// TrySend is non-blocking by construction (select with default): clean.
func (p *Prepared) TrySend(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case ch <- p.n:
	default:
	}
}

// Spawn's goroutine does not hold this goroutine's lock: clean.
func (p *Prepared) Spawn(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		ch <- 1
	}()
}

// Sleep parks the goroutine under the lock.
func (p *Prepared) Sleep() {
	p.mu.Lock()
	defer p.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep while holding Prepared lock`
}

// Flush fsyncs under the lock.
func (p *Prepared) Flush() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.log.Sync() // want `file I/O \(os\.File\.Sync\) while holding Prepared lock`
}

// Receive blocks on a channel receive under the lock.
func (p *Prepared) Receive(ch chan int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.n = <-ch // want `channel receive while holding Prepared lock`
}

// plain is not a guarded type; lockscope leaves it alone.
type plain struct {
	mu sync.Mutex
	n  int
}

func (pl *plain) send(ch chan int) {
	pl.mu.Lock()
	defer pl.mu.Unlock()
	ch <- pl.n
}
