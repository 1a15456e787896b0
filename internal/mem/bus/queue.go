package bus

import "gem5aladdin/internal/sim"

// queue is the fabrics' FIFO. It recycles its backing array: pops advance a
// head index instead of reslicing (which would strand capacity in front of
// the slice and force every push to reallocate), pushes compact the live
// region back to the front before growing, and vacated slots are zeroed so
// queued callbacks are not retained.
type queue[T any] struct {
	buf  []T
	head int
}

func (q *queue[T]) len() int { return len(q.buf) - q.head }

func (q *queue[T]) push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

func (q *queue[T]) peek() T { return q.buf[q.head] }

func (q *queue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// spreadProgress schedules a stream's arrival notifications for the bytes
// [start, end) of a total-byte transfer whose data drains evenly over the
// next window ticks: one notification at every multiple of gran inside the
// range, each carrying the cumulative byte count, plus the tail when the
// range ends the transfer. A whole transfer is start 0, end total.
func spreadProgress(eng *sim.Engine, progress func(uint32), gran, start, end, total uint32, window sim.Tick) {
	chunk := end - start
	cum := (start/gran + 1) * gran
	if end == total && cum > end {
		cum = end
	}
	for cum <= end {
		frac := float64(cum-start) / float64(chunk)
		at := sim.Tick(float64(window)*frac + 0.5)
		done := cum
		eng.After(at, func() { progress(done) })
		if cum == end {
			break
		}
		cum += gran
		if cum > end {
			if end != total {
				break
			}
			cum = end
		}
	}
}
