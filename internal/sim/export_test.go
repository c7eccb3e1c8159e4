package sim

// SeedRecordPool puts n fresh Multicast records in the engine's pool and
// returns them, so a test can check that a run hands every one back.
func (e *Engine) SeedRecordPool(n int) []*Multicast {
	recs := make([]*Multicast, n)
	for k := range recs {
		recs[k] = new(Multicast)
	}
	e.freeMC = append(e.freeMC, recs...)
	return recs
}

// RecordPool returns the engine's pooled Multicast records.
func (e *Engine) RecordPool() []*Multicast { return e.freeMC }

// Settled reports whether a pooled record holds no payload, no
// outstanding delivery and no recipient order.
func (mc *Multicast) Settled() bool {
	return mc.Payload == nil && mc.outstanding == 0 && mc.order == 0
}
