package device

// Pooled reports what d keeps for reuse: finished requests, completed
// runs, and how many of those runs still reference a batch, a request or
// a buffer.
func (d *Disk) Pooled() (requests, runs, holding int) {
	for _, c := range d.cfree {
		held := c.b != nil || c.r != nil
		for _, v := range c.iov[:cap(c.iov)] {
			held = held || v != nil
		}
		if held {
			holding++
		}
	}
	return len(d.free), len(d.cfree), holding
}
