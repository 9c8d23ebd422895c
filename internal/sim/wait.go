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

// Semaphore is a counting semaphore built on a WaitQueue.
type Semaphore struct {
	wq    *WaitQueue
	count int
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(env *Env, name string, initial int) *Semaphore {
	return &Semaphore{wq: NewWaitQueue(env, name), count: initial}
}

// Acquire decrements the count, parking p while the count is zero.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.wq.Wait(p)
	}
	s.count--
}

// TryAcquire decrements without blocking; reports success.
func (s *Semaphore) TryAcquire() bool {
	if s.count == 0 {
		return false
	}
	s.count--
	return true
}

// Release increments the count and wakes one waiter if any.
func (s *Semaphore) Release() {
	s.count++
	s.wq.Wake()
}

// Count reports the current count.
func (s *Semaphore) Count() int { return s.count }

// Mailbox is an unbounded FIFO of values with blocking receive; the
// lowest-level message queue used by the kernel models.
type Mailbox struct {
	wq    *WaitQueue
	items []any
}

// NewMailbox creates an empty mailbox.
func NewMailbox(env *Env, name string) *Mailbox {
	return &Mailbox{wq: NewWaitQueue(env, name)}
}

// Put appends v and wakes one blocked receiver.
func (m *Mailbox) Put(v any) {
	m.items = append(m.items, v)
	m.wq.Wake()
}

// Get removes and returns the oldest value, parking p while empty.
func (m *Mailbox) Get(p *Proc) any {
	for len(m.items) == 0 {
		m.wq.Wait(p)
	}
	return m.pop()
}

// TryGet removes and returns the oldest value without blocking.
func (m *Mailbox) TryGet() (any, bool) {
	if len(m.items) == 0 {
		return nil, false
	}
	return m.pop(), true
}

// pop removes the oldest value, clearing the vacated slot.
func (m *Mailbox) pop() any {
	v := m.items[0]
	n := copy(m.items, m.items[1:])
	m.items[n] = nil
	m.items = m.items[:n]
	return v
}

// Len reports the number of queued values.
func (m *Mailbox) Len() int { return len(m.items) }
