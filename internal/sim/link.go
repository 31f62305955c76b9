package sim

// Link models a unidirectional, bandwidth-limited, fixed-latency wire
// between two components: a NUBA point-to-point SM<->LLC link, a crossbar
// output port, an LLC<->memory-controller connection or an MCM
// inter-module link.
//
// A message of b bytes occupies the link input for ceil(b/width) cycles
// (serialization) and is delivered latency cycles after its last flit left.
// Delivery is in order. The receiver pops messages when it is ready; a
// bounded output buffer propagates back-pressure to senders.
type Link[T any] struct {
	latency Cycle
	width   int // bytes per cycle
	// Serialization is byte-budget based: backlog is the number of
	// injected bytes not yet drained at width bytes per cycle
	// (lastCycle tracks the drain). Multiple small messages may share a
	// cycle; a large message occupies several. This matters for wide
	// links carrying many small control messages (e.g. coherence
	// invalidations), which must not serialize at one message per cycle.
	backlog   int
	lastCycle Cycle
	out       *Queue[linkItem[T]]

	// BusyCycles accumulates the serialization cycles consumed, which the
	// energy model converts to dynamic link energy.
	BusyCycles int64
	// Bytes accumulates payload bytes accepted.
	Bytes int64
}

type linkItem[T any] struct {
	ready Cycle
	v     T
}

// NewLink returns a link with the given propagation latency in cycles,
// width in bytes per cycle, and output buffer capacity in messages
// (0 = unbounded). Width must be positive.
func NewLink[T any](latency Cycle, width, buffer int) *Link[T] {
	if width <= 0 {
		panic("sim: Link width must be positive")
	}
	if latency < 0 {
		panic("sim: Link latency must be non-negative")
	}
	return &Link[T]{latency: latency, width: width, out: NewQueue[linkItem[T]](buffer)}
}

// drain advances the byte backlog to cycle now.
func (l *Link[T]) drain(now Cycle) {
	if now > l.lastCycle {
		drained := int(now-l.lastCycle) * l.width
		if drained >= l.backlog {
			l.backlog = 0
		} else {
			l.backlog -= drained
		}
		l.lastCycle = now
	}
}

// CanSend reports whether a message may be injected at cycle now: less
// than one cycle of serialization backlog remains and the output buffer
// has room.
func (l *Link[T]) CanSend(now Cycle) bool {
	l.drain(now)
	return l.backlog < l.width && !l.out.Full()
}

// Send injects a message of the given byte size at cycle now. It reports
// whether the link accepted it; callers must check CanSend or the return
// value and retry on back-pressure.
func (l *Link[T]) Send(now Cycle, v T, bytes int) bool {
	if !l.CanSend(now) {
		return false
	}
	if bytes < 1 {
		bytes = 1
	}
	l.backlog += bytes
	ser := Cycle((l.backlog + l.width - 1) / l.width)
	l.out.Push(linkItem[T]{ready: now + ser + l.latency, v: v})
	l.BusyCycles += int64((bytes + l.width - 1) / l.width)
	l.Bytes += int64(bytes)
	return true
}

// RetryAt returns a lower bound on the cycle at which a Send refused at
// cycle now could succeed: the cycle the byte backlog falls under one
// cycle's width, and, while the buffer is full, room — the caller's bound
// on the cycle it would see the slot the head leaves, which only the
// caller can know (no sooner than the receiver takes the head, and a cycle
// later than that for a sender that runs ahead of the receiver in a
// cycle). It is a pure observation.
func (l *Link[T]) RetryAt(now, room Cycle) Cycle {
	l.drain(now)
	t := now + 1
	if l.backlog >= l.width {
		t = now + Cycle(l.backlog/l.width)
	}
	if l.out.Full() && room > t {
		t = room
	}
	return t
}

// Peek returns the message at the head of the link if it has arrived by
// cycle now, without consuming it.
func (l *Link[T]) Peek(now Cycle) (v T, ok bool) {
	it, ok := l.out.Peek()
	if !ok || it.ready > now {
		var zero T
		return zero, false
	}
	return it.v, true
}

// Pop consumes and returns the message at the head of the link if it has
// arrived by cycle now.
func (l *Link[T]) Pop(now Cycle) (v T, ok bool) {
	it, ok := l.out.Peek()
	if !ok || it.ready > now {
		var zero T
		return zero, false
	}
	l.out.Pop()
	return it.v, true
}

// Pending returns the number of in-flight or waiting messages.
func (l *Link[T]) Pending() int { return l.out.Len() }

// NextReady returns the arrival cycle of the head message, or Never when
// the link is empty. Delivery is in order, so the head's arrival bounds
// every later message: no receiver can pop anything before it.
func (l *Link[T]) NextReady() Cycle {
	it, ok := l.out.Peek()
	if !ok {
		return Never
	}
	return it.ready
}

// StateSig returns a signature of the link's semantically observable
// state: the in-flight message count and each message's arrival cycle.
// The serialization drain (backlog, lastCycle) and the accounting
// counters are excluded — drain is pure time progress re-derived from
// the clock on the next Send, so it may advance inside a proven-idle
// window without invalidating the wake hint.
func (l *Link[T]) StateSig() uint64 {
	h := MixSig(SigSeed, uint64(l.out.Len()))
	for i := 0; i < l.out.Len(); i++ {
		h = MixSig(h, uint64(l.out.At(i).ready))
	}
	return h
}
