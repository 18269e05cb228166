package canonstore

import (
	"bytes"
	"testing"
)

func TestMemUpsertByIdentity(t *testing.T) {
	m := NewMem()
	defer m.Close()

	// A value and a pointer under the same key and domains are distinct
	// records; copies under different domain pairs are distinct too.
	puts := []Entry{
		{Key: 7, Value: []byte("v1"), Storage: "a", Access: "", Version: 1},
		{Key: 7, Storage: "a", Access: "", PtrID: 9, PtrName: "a/x", PtrAddr: "h:1", Version: 1},
		{Key: 7, Value: []byte("v2"), Storage: "a/b", Access: "a", Version: 1},
	}
	for _, e := range puts {
		applied, err := m.Put(e)
		if err != nil || !applied {
			t.Fatalf("Put(%+v) = %v, %v", e, applied, err)
		}
	}
	got := m.Get(7, nil)
	if len(got) != 3 {
		t.Fatalf("Get returned %d entries, want 3", len(got))
	}
	if m.Keys() != 1 {
		t.Fatalf("Keys() = %d, want 1", m.Keys())
	}

	// Overwriting the first record must not append a fourth entry.
	applied, err := m.Put(Entry{Key: 7, Value: []byte("v1b"), Storage: "a", Access: "", Version: 2})
	if err != nil || !applied {
		t.Fatalf("overwrite put: %v, %v", applied, err)
	}
	got = m.Get(7, nil)
	if len(got) != 3 {
		t.Fatalf("after overwrite Get returned %d entries, want 3", len(got))
	}
	for _, e := range got {
		if e.Storage == "a" && e.Access == "" && !e.IsPointer() {
			if string(e.Value) != "v1b" || e.Version != 2 {
				t.Fatalf("overwrite not applied: %+v", e)
			}
		}
	}
}

func TestMemVersionConflict(t *testing.T) {
	m := NewMem()
	defer m.Close()
	if _, err := m.Put(Entry{Key: 1, Value: []byte("new"), Version: 5}); err != nil {
		t.Fatal(err)
	}
	// A stale write loses.
	applied, err := m.Put(Entry{Key: 1, Value: []byte("old"), Version: 4})
	if err != nil || applied {
		t.Fatalf("stale write applied=%v err=%v, want false, nil", applied, err)
	}
	// Equal versions break ties by content digest, so every replica picks
	// the same winner regardless of arrival order.
	a := Entry{Key: 1, Value: []byte("tie-a"), Version: 5}
	b := Entry{Key: 1, Value: []byte("tie-b"), Version: 5}
	lo, hi := a, b
	if lo.Digest() > hi.Digest() {
		lo, hi = hi, lo
	}
	applied, err = m.Put(hi)
	if err != nil || !applied {
		t.Fatalf("higher-digest tie applied=%v err=%v, want true, nil", applied, err)
	}
	applied, err = m.Put(lo)
	if err != nil || applied {
		t.Fatalf("lower-digest tie applied=%v err=%v, want false, nil", applied, err)
	}
	got := m.Get(1, nil)
	if len(got) != 1 || !bytes.Equal(got[0].Value, hi.Value) {
		t.Fatalf("Get = %+v, want the digest winner %q", got, hi.Value)
	}
	// An exact re-put (replica push of the same record) is not a write.
	applied, err = m.Put(hi)
	if err != nil || applied {
		t.Fatalf("exact re-put applied=%v err=%v, want false, nil", applied, err)
	}
}

func TestMemDelete(t *testing.T) {
	m := NewMem()
	defer m.Close()
	if _, err := m.Put(Entry{Key: 3, Value: []byte("x"), Storage: "s", Access: "s"}); err != nil {
		t.Fatal(err)
	}
	existed, err := m.Delete(3, "s", "s", false)
	if err != nil || !existed {
		t.Fatalf("Delete = %v, %v", existed, err)
	}
	if got := m.Get(3, nil); len(got) != 0 {
		t.Fatalf("Get after delete = %+v", got)
	}
	if m.Keys() != 0 {
		t.Fatalf("Keys() = %d after delete", m.Keys())
	}
	existed, err = m.Delete(3, "s", "s", false)
	if err != nil || existed {
		t.Fatalf("second Delete = %v, %v", existed, err)
	}
}

func TestMemForEach(t *testing.T) {
	m := NewMem()
	defer m.Close()
	for i := uint64(0); i < 10; i++ {
		if _, err := m.Put(Entry{Key: i, Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	m.ForEach(func(Entry) bool { n++; return true })
	if n != 10 {
		t.Fatalf("ForEach visited %d, want 10", n)
	}
	n = 0
	m.ForEach(func(Entry) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("early-stop ForEach visited %d, want 3", n)
	}
}

func TestGetAppendsToDst(t *testing.T) {
	m := NewMem()
	defer m.Close()
	if _, err := m.Put(Entry{Key: 1, Value: []byte("a")}); err != nil {
		t.Fatal(err)
	}
	buf := make([]Entry, 0, 4)
	out := m.Get(1, buf)
	if len(out) != 1 || &out[0] != &buf[:1][0] {
		t.Fatalf("Get did not append into the caller's buffer")
	}
}
