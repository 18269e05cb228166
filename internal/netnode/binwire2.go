package netnode

// Walks of the versioned store and the anti-entropy protocol (docs/WIRE.md
// §8), over the coder of binwire.go.

// ---- store2 ----

func (q *storeBatch) wire(c *coder) {
	for i, n := 0, slice(c, "Entries", &q.Entries); c.more(i, n); i++ {
		at(c, &q.Entries, i).wire(c)
	}
}

func (q *storeRecord) wire(c *coder) {
	c.u64("Key", &q.Key)
	c.optBytes("Value", &q.Value)
	c.str("Storage", &q.Storage)
	c.str("Access", &q.Access)
	c.info("Pointer", &q.Pointer)
	c.bool("Replica", &q.Replica)
	c.uvarint("Version", &q.Version)
}

// ---- synctree ----

func (q *syncTreeReq) wire(c *coder) {
	c.str("Prefix", &q.Prefix)
	c.u64("Lo", &q.Lo)
	c.u64("Hi", &q.Hi)
}

// Leaf digests are uniformly distributed, so they ride as fixed 8-byte words.
func (p *syncTreeResp) wire(c *coder) {
	c.u64("Root", &p.Root)
	for i, n := 0, slice(c, "Leaves", &p.Leaves); c.more(i, n); i++ {
		c.u64("", at(c, &p.Leaves, i))
	}
}

// ---- synckeys ----

func (q *syncKeysReq) wire(c *coder) {
	c.str("Prefix", &q.Prefix)
	c.u64("Lo", &q.Lo)
	c.u64("Hi", &q.Hi)
	for i, n := 0, slice(c, "Buckets", &q.Buckets); c.more(i, n); i++ {
		c.uint("", at(c, &q.Buckets, i))
	}
}

func (it *syncItem) wire(c *coder) {
	c.u64("Key", &it.Key)
	c.str("Storage", &it.Storage)
	c.str("Access", &it.Access)
	c.bool("Pointer", &it.Pointer)
	c.uvarint("Version", &it.Version)
	c.u64("Digest", &it.Digest)
}

func (p *syncKeysResp) wire(c *coder) {
	for i, n := 0, slice(c, "Items", &p.Items); c.more(i, n); i++ {
		at(c, &p.Items, i).wire(c)
	}
}

// ---- syncpull ----

func (q *syncPullReq) wire(c *coder) {
	c.str("Prefix", &q.Prefix)
	c.u64("Lo", &q.Lo)
	c.u64("Hi", &q.Hi)
	c.u64("Key", &q.Key)
}

func (p *syncPullResp) wire(c *coder) {
	for i, n := 0, slice(c, "Entries", &p.Entries); c.more(i, n); i++ {
		at(c, &p.Entries, i).wire(c)
	}
}

// ---- repair ----

func (p *repairResp) wire(c *coder) {
	c.uint("Partners", &p.Partners)
	c.uint("Pushed", &p.Pushed)
	c.uint("Pulled", &p.Pulled)
}

func (q storeBatch) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *storeBatch) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (q syncTreeReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *syncTreeReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p syncTreeResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *syncTreeResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}

func (q syncKeysReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *syncKeysReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p syncKeysResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *syncKeysResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}

func (q syncPullReq) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	q.wire(&c)
	return c.b, nil
}
func (q *syncPullReq) UnmarshalBinary(d []byte) error { c := decoder(d); q.wire(&c); return c.r.done() }

func (p syncPullResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *syncPullResp) UnmarshalBinary(d []byte) error {
	c := decoder(d)
	p.wire(&c)
	return c.r.done()
}

func (p repairResp) AppendBinary(b []byte) ([]byte, error) {
	c := encoder(b)
	p.wire(&c)
	return c.b, nil
}
func (p *repairResp) UnmarshalBinary(d []byte) error { c := decoder(d); p.wire(&c); return c.r.done() }
