package serve

import "sync"

// failoverQueue holds jobs orphaned by a dying replica until a slot takes
// them. It enforces anti-affinity: a slot does not take back a job it
// lost while any other slot is live. The losing slot is recycled within
// milliseconds and would otherwise often win the race for its own job,
// replaying it on the same nodes that just failed it (see DESIGN.md §12).
//
// Waiters block on the channel returned by changed, which is closed (and
// replaced) whenever a job is pushed or a slot's health changes — the two
// events that can make a skipped job takeable.
type failoverQueue struct {
	mu    sync.Mutex
	jobs  []*job
	wakeC chan struct{}
}

func newFailoverQueue() *failoverQueue {
	return &failoverQueue{wakeC: make(chan struct{})}
}

// push hands a lost job (its lostSlot set) to the pool.
func (q *failoverQueue) push(j *job) {
	q.mu.Lock()
	q.jobs = append(q.jobs, j)
	q.mu.Unlock()
	q.wake()
}

// wake releases every current waiter so it re-evaluates the queue.
func (q *failoverQueue) wake() {
	q.mu.Lock()
	close(q.wakeC)
	q.wakeC = make(chan struct{})
	q.mu.Unlock()
}

// changed returns a channel closed at the next push or wake. Take it
// before calling take so no event between the two is missed.
func (q *failoverQueue) changed() <-chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.wakeC
}

// take removes and returns the oldest job slot may run: one it did not
// lose, or any job when avoid is false (no other slot is live, or the
// caller is the dead-pool drainer, slot -1). It returns nil when nothing
// is takeable.
func (q *failoverQueue) take(slot int, avoid bool) *job {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, j := range q.jobs {
		if avoid && j.lostSlot == slot {
			continue
		}
		q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
		return j
	}
	return nil
}
