package netnode

// Walks of the routed key-value operations (docs/WIRE.md §10), over the
// coder of binwire.go. Value fields ride as optional bytes, so the decoder
// bounds them by the bytes actually present, exactly as storeRecord does.

// ---- get ----

func (q *getReq) wire(c *coder) {
	c.u64("Key", &q.Key)
	c.str("Origin", &q.Origin)
	c.int("Level", &q.Level)
	wireRoute(c, &q.routeHeader)
}

func (p *getResp) wire(c *coder) {
	c.int("Status", &p.Status)
	c.optBytes("Value", &p.Value)
	c.int("Level", &p.Level)
	wireRoute(c, &p.routeHeader)
}

// ---- put ----

func (q *putReq) wire(c *coder) {
	c.u64("Key", &q.Key)
	c.optBytes("Value", &q.Value)
	c.str("Storage", &q.Storage)
	c.str("Access", &q.Access)
	c.info("Pointer", &q.Pointer)
	wireRoute(c, &q.routeHeader)
}

func (p *putResp) wire(c *coder) {
	c.int("Status", &p.Status)
	c.info("Owner", &p.Owner)
	wireRoute(c, &p.routeHeader)
}

func (q getReq) AppendBinary(b []byte) ([]byte, error) { c := encoder(b); q.wire(&c); return c.b, nil }
func (q *getReq) UnmarshalBinary(d []byte) error       { c := decoder(d); q.wire(&c); return c.r.done() }

func (p getResp) AppendBinary(b []byte) ([]byte, error) { c := encoder(b); p.wire(&c); return c.b, nil }
func (p *getResp) UnmarshalBinary(d []byte) error       { c := decoder(d); p.wire(&c); return c.r.done() }

func (q putReq) AppendBinary(b []byte) ([]byte, error) { c := encoder(b); q.wire(&c); return c.b, nil }
func (q *putReq) UnmarshalBinary(d []byte) error       { c := decoder(d); q.wire(&c); return c.r.done() }

func (p putResp) AppendBinary(b []byte) ([]byte, error) { c := encoder(b); p.wire(&c); return c.b, nil }
func (p *putResp) UnmarshalBinary(d []byte) error       { c := decoder(d); p.wire(&c); return c.r.done() }
