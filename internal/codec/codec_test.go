package codec

import (
	"bytes"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	at := time.Unix(1_000, 123_456_789)
	var e Enc
	e.Byte(7)
	e.U64(1 << 40)
	e.I64(-5)
	e.Bytes([]byte("!\nraw"))
	e.Str("")
	e.Time(at)
	e.Time(time.Time{})
	e.B = append(e.B, "tail"...)

	d := Dec{B: e.B}
	if c := d.Byte(); c != 7 {
		t.Errorf("Byte = %d", c)
	}
	if v := d.U64(); v != 1<<40 {
		t.Errorf("U64 = %d", v)
	}
	if v := d.I64(); v != -5 {
		t.Errorf("I64 = %d", v)
	}
	if p := d.Bytes(); !bytes.Equal(p, []byte("!\nraw")) {
		t.Errorf("Bytes = %q", p)
	}
	if s := d.Str(); s != "" {
		t.Errorf("Str = %q", s)
	}
	if got := d.Time(); !got.Equal(at) {
		t.Errorf("Time = %v, want %v", got, at)
	}
	if got := d.Time(); !got.IsZero() {
		t.Errorf("zero Time decoded as %v", got)
	}
	if rest := d.Rest(); string(rest) != "tail" || d.Err != nil {
		t.Errorf("Rest = %q, Err = %v", rest, d.Err)
	}
}

// A declared collection count or field length far beyond the actual
// bytes is rejected before any allocation is sized by it, and the error
// latches: every later read is a zero value.
func TestLengthBombLatches(t *testing.T) {
	var e Enc
	e.U64(1 << 40)
	for name, read := range map[string]func(*Dec){
		"Len":   func(d *Dec) { d.Len() },
		"Bytes": func(d *Dec) { d.Bytes() },
	} {
		d := Dec{B: append([]byte(nil), e.B...)}
		read(&d)
		if d.Err != ErrCorrupt {
			t.Errorf("%s accepted a 2^40 length: %v", name, d.Err)
		}
		if d.Byte() != 0 || d.U64() != 0 || d.Str() != "" || !d.Time().IsZero() {
			t.Errorf("%s: reads after the latch returned data", name)
		}
	}
	short := Dec{B: []byte{1, 2, 3}}
	if short.Time(); short.Err != ErrCorrupt {
		t.Error("Time read past a 3-byte buffer")
	}
}

func TestPoolDropsGiantBuffers(t *testing.T) {
	big := make([]byte, 0, keepBuf+1)
	PutBuf(&big) // must not be pooled
	for i := 0; i < 8; i++ {
		if b := GetBuf(); cap(*b) > keepBuf {
			t.Fatalf("pool handed back a %d-byte buffer", cap(*b))
		}
	}
}
