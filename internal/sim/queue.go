package sim

// Queue is a bounded FIFO ring buffer. It is the basic hardware queue
// abstraction of the simulator (LMR/RMR queues, DRAM command queues,
// crossbar input buffers, ...). A zero-capacity Queue is unbounded.
type Queue[T any] struct {
	buf   []T
	head  int
	count int
	limit int // 0 means unbounded
}

// NewQueue returns a queue that holds at most capacity entries.
// capacity == 0 creates an unbounded queue.
func NewQueue[T any](capacity int) *Queue[T] {
	n := capacity
	if n <= 0 {
		n = 8
	}
	return &Queue[T]{buf: make([]T, n), limit: capacity}
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return q.count }

// Empty reports whether the queue holds no entries.
func (q *Queue[T]) Empty() bool { return q.count == 0 }

// Full reports whether the queue cannot accept another entry.
func (q *Queue[T]) Full() bool { return q.limit > 0 && q.count >= q.limit }

// Push appends v and reports whether it was accepted. A full queue
// rejects the push; callers treat that as back-pressure.
func (q *Queue[T]) Push(v T) bool {
	if q.Full() {
		return false
	}
	if q.count == len(q.buf) {
		q.grow(q.count) // double
	}
	q.buf[(q.head+q.count)%len(q.buf)] = v
	q.count++
	return true
}

// Pop removes and returns the oldest entry. ok is false on an empty queue.
func (q *Queue[T]) Pop() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	v = q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return v, true
}

// Peek returns the oldest entry without removing it.
func (q *Queue[T]) Peek() (v T, ok bool) {
	if q.count == 0 {
		return v, false
	}
	return q.buf[q.head], true
}

// At returns the i-th oldest entry (0 == head). It panics if i is out of
// range; callers iterate with i < Len(). FR-FCFS scheduling uses At to scan
// for row hits without disturbing queue order.
func (q *Queue[T]) At(i int) T {
	if i < 0 || i >= q.count {
		panic("sim: Queue.At out of range")
	}
	return q.buf[(q.head+i)%len(q.buf)]
}

// RemoveAt removes and returns the i-th oldest entry, preserving the order
// of the remaining entries.
func (q *Queue[T]) RemoveAt(i int) T {
	if i < 0 || i >= q.count {
		panic("sim: Queue.RemoveAt out of range")
	}
	v := q.buf[(q.head+i)%len(q.buf)]
	// Shift everything after i forward by one slot.
	for j := i; j < q.count-1; j++ {
		q.buf[(q.head+j)%len(q.buf)] = q.buf[(q.head+j+1)%len(q.buf)]
	}
	var zero T
	q.buf[(q.head+q.count-1)%len(q.buf)] = zero
	q.count--
	return v
}

// grow makes room for n more entries in one allocation of the exact size,
// so the next n pushes do not grow the buffer.
func (q *Queue[T]) grow(n int) {
	if q.count+n <= len(q.buf) {
		return
	}
	nb := make([]T, q.count+n)
	for i := 0; i < q.count; i++ {
		nb[i] = q.buf[(q.head+i)%len(q.buf)]
	}
	q.buf = nb
	q.head = 0
}
