package node

// PrewarmBatch does nothing: DeliverBatch keeps no working memory beyond
// the delivery scratch New sizes to n. It stays for callers that built the
// batch path's buffers up front.
func (k *Kernel) PrewarmBatch() {}

// DeliverBatch delivers a batch of incoming messages in arrival order, each
// by the per-message step Deliver runs. post, if non-nil, runs after each
// message's delivery completes (forced checkpoint taken, vector merged,
// collector and protocol notified), with the message's index into pbs. It
// stops at the first failing delivery: the messages before it are fully
// applied, and post does not run for it. Like Deliver, nothing invoked here
// may retain pb vectors or entries past its call.
func (k *Kernel) DeliverBatch(pbs []Piggyback, post func(i int)) error {
	for i := range pbs {
		if _, err := k.deliver(&pbs[i]); err != nil {
			return err
		}
		if post != nil {
			post(i)
		}
	}
	return nil
}
