package sim

// WaitQueue is a FIFO queue of parked simprocs. It is the basic blocking
// primitive from which kernels build semaphores, message queues, and
// condition variables. All operations must be invoked from scheduler or
// simproc context (the single-runner discipline makes them race-free).
type WaitQueue struct {
	name    string
	waiters []*Proc
}

// NewWaitQueue creates a named wait queue on env. Nothing registers the
// queue: deadlock diagnostics find its waiters through the env's live
// procs, so a queue nobody references is garbage like any other value.
func NewWaitQueue(env *Env, name string) *WaitQueue {
	return &WaitQueue{name: name}
}

// Name returns the diagnostic label.
func (wq *WaitQueue) Name() string { return wq.name }

// Len reports the number of parked waiters.
func (wq *WaitQueue) Len() int { return len(wq.waiters) }

// Wait parks p until a waker calls Wake/WakeAll/WakeValue. It returns the
// value passed by the waker (nil for plain Wake).
func (wq *WaitQueue) Wait(p *Proc) any {
	p.waitQ = wq
	p.wakeValue = nil
	wq.waiters = append(wq.waiters, p)
	p.park()
	v := p.wakeValue
	p.wakeValue = nil
	return v
}

// Wake readies the oldest waiter. It reports whether a waiter existed.
func (wq *WaitQueue) Wake() bool { return wq.WakeValue(nil) }

// WakeValue readies the oldest waiter, arranging for its Wait to return v.
func (wq *WaitQueue) WakeValue(v any) bool {
	if len(wq.waiters) == 0 {
		return false
	}
	p := wq.waiters[0]
	wq.cut(0)
	p.waitQ = nil
	p.wakeValue = v
	// Wake through the proc's own env: a queue created on one env must
	// still ready waiters onto the env that schedules them (relevant
	// when procs live on shard envs of a parallel partition).
	p.env.wake(p)
	return true
}

// WakeAll readies every waiter, preserving FIFO order, and reports how
// many were woken.
func (wq *WaitQueue) WakeAll() int {
	n := len(wq.waiters)
	for wq.WakeValue(nil) {
	}
	return n
}

// remove deletes p from the queue without waking it (Kill path).
func (wq *WaitQueue) remove(p *Proc) {
	for i, w := range wq.waiters {
		if w == p {
			wq.cut(i)
			p.waitQ = nil
			return
		}
	}
}

// cut deletes waiter i, shifting the rest down, and clears the vacated
// tail slot so the backing array keeps no departed proc reachable.
func (wq *WaitQueue) cut(i int) {
	n := i + copy(wq.waiters[i:], wq.waiters[i+1:])
	wq.waiters[n] = nil
	wq.waiters = wq.waiters[:n]
}

// Queue is an unbounded FIFO of T values with blocking receive: the
// message queue the kernel models and the run-time package build on.
// It holds values, not interfaces, so queuing one boxes nothing. The
// zero Queue is ready once Init has named it.
type Queue[T any] struct {
	wq    *WaitQueue
	items []T
	head  int
}

// Init names the queue for deadlock diagnostics; call it before use.
func (q *Queue[T]) Init(env *Env, name string) { q.wq = NewWaitQueue(env, name) }

// Put appends v and wakes one blocked receiver. Before the backing
// array would grow, the live values move down over the consumed head,
// so a queue that is never empty stays as large as its longest backlog.
func (q *Queue[T]) Put(v T) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		n := copy(q.items, q.items[q.head:])
		clear(q.items[n:])
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, v)
	q.wq.Wake()
}

// Get removes and returns the oldest value, parking p while the queue
// is empty.
func (q *Queue[T]) Get(p *Proc) T {
	for q.head == len(q.items) {
		q.wq.Wait(p)
	}
	return q.pop()
}

// TryGet removes and returns the oldest value without blocking.
func (q *Queue[T]) TryGet() (T, bool) {
	if q.head == len(q.items) {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// Len reports the number of queued values.
func (q *Queue[T]) Len() int { return len(q.items) - q.head }

// pop removes the oldest value, clearing its slot so the queue keeps
// nothing it has handed out reachable.
func (q *Queue[T]) pop() T {
	v := q.items[q.head]
	var zero T
	q.items[q.head] = zero
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	return v
}
