package harness

import "sync"

// doraExecutor is E11's data-oriented runtime (Pandis et al., "Data-Oriented
// Transaction Execution", VLDB 2010): where thread-to-transaction lets any
// worker touch any record and pays concurrency control on every access, here
// each partition of the data is owned by exactly one goroutine, work is
// routed to the owner, and accesses inside a partition need no locks at all.
// The caller guarantees that work sent to a partition touches only that
// partition's data; the executor guarantees serial execution per partition.
type doraExecutor struct {
	queues []chan func()
	wg     sync.WaitGroup
}

// newDoraExecutor starts the owners of n partitions; depth bounds each
// owner's backlog.
func newDoraExecutor(n, depth int) *doraExecutor {
	e := &doraExecutor{queues: make([]chan func(), n)}
	for i := range e.queues {
		q := make(chan func(), depth)
		e.queues[i] = q
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for fn := range q {
				fn()
			}
		}()
	}
	return e
}

// exec runs fn on the owner of part and waits for it to finish.
func (e *doraExecutor) exec(part int, fn func()) {
	done := make(chan struct{})
	e.queues[part] <- func() { fn(); close(done) }
	<-done
}

// stop drains and terminates the owners.
func (e *doraExecutor) stop() {
	for _, q := range e.queues {
		close(q)
	}
	e.wg.Wait()
}
