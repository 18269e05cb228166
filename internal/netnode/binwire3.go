package netnode

// Walks of the geometry maintenance protocol (docs/WIRE.md §9): Kandy's
// bucket-refresh probe and Cacophony's lookahead neighbor exchange, over the
// coder of binwire.go.

// ---- bucketref ----

func (q *bucketRefReq) wire(c *coder) {
	c.str("Prefix", &q.Prefix)
	c.u64("Target", &q.Target)
}

func (p *bucketRefResp) wire(c *coder) { infos(c, "Contacts", &p.Contacts) }

// ---- lookahead ----

func (q *lookaheadReq) wire(c *coder) { c.int("Levels", &q.Levels) }

// Estimates are node counts, usually small, so they ride as uvarints.
func (p *lookaheadResp) wire(c *coder) {
	infos(c, "Succs", &p.Succs)
	for i, n := 0, slice(c, "Ests", &p.Ests); c.more(i, n); i++ {
		c.uvarint("", at(c, &p.Ests, i))
	}
}

func (q bucketRefReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *bucketRefReq) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	q.wire(&c)
	return c.r.done()
}

func (p bucketRefResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *bucketRefResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}

func (q lookaheadReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *lookaheadReq) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	q.wire(&c)
	return c.r.done()
}

func (p lookaheadResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *lookaheadResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}
