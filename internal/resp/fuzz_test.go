package resp

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// asWritten is v as Write puts it on the wire: error messages gain the
// default code, and a bare CR inside a simple-string or error line
// (which Read accepts) becomes a space.
func asWritten(v Value) Value {
	switch v.Kind {
	case SimpleString, ErrorString:
		if v.Kind == ErrorString && !hasErrorCode(v.Str) {
			v.Str = "ERR " + v.Str
		}
		v.Str = crlfToSpace.Replace(v.Str)
	case Array:
		if v.Array != nil {
			out := make([]Value, len(v.Array))
			for i, e := range v.Array {
				out[i] = asWritten(e)
			}
			v.Array = out
		}
	}
	return v
}

// FuzzRead asserts the protocol reader never panics and that whatever
// it successfully reads re-encodes and re-reads to the same value.
func FuzzRead(f *testing.F) {
	seeds := []string{
		"+OK\r\n",
		"-ERR boom\r\n",
		"-lower case, no code\r\n",
		"+bare\rCR\r\n",
		":42\r\n",
		":-9223372036854775808\r\n",
		":9223372036854775807\r\n",
		":9223372036854775808\r\n",
		":+5\r\n",
		":0000000000000000000000012\r\n",
		"$5\r\nhello\r\n",
		"$-1\r\n",
		"*2\r\n$4\r\nPING\r\n$1\r\nx\r\n",
		"*3\r\n*2\r\n$1\r\nv\r\n$2\r\nto\r\n*2\r\n*2\r\n:1\r\n:2\r\n*2\r\n:3\r\n:4\r\n*0\r\n",
		"*-1\r\n",
		"*1000000\r\n",
		"$99999999999\r\n",
		"garbage",
		// Lines that never end: every one must be refused at a bound.
		"*1\r\n$" + strings.Repeat("9", 5000),
		":" + strings.Repeat("1", 5000) + "\r\n",
		"*" + strings.Repeat("1", 5000),
		"+" + strings.Repeat("x", maxInlineLen+1),
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Read(bufio.NewReader(bytes.NewReader(data)))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		w := bufio.NewWriter(&buf)
		if err := Write(w, v); err != nil {
			t.Fatalf("cannot re-encode %+v: %v", v, err)
		}
		w.Flush()
		back, err := Read(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("cannot re-read %q: %v", buf.String(), err)
		}
		if want := asWritten(v); !reflect.DeepEqual(back, want) {
			t.Fatalf("value changed across Write and Read:\n got %+v\nwant %+v", back, want)
		}
	})
}

// refRead is the decoder before replies were parsed in place (DESIGN.md
// §15): one ReadByte and one ReadSlice per line, and every long array
// grown by doubling. It stays here, test-only, as the reference Read
// must match value for value, error for error and byte for byte.
func refRead(r *bufio.Reader) (Value, error) {
	d := refDecoder{r: r}
	var v Value
	err := d.read(&v)
	return v, err
}

type refDecoder struct {
	r     *bufio.Reader
	chunk []Value
	next  int
}

func (d *refDecoder) array(n int) []Value {
	if n == 0 || n > slabArrayMax {
		return make([]Value, 0, min(n, 1024))
	}
	if n > len(d.chunk) {
		d.next = min(max(2*d.next, slabChunkMin), slabChunkMax)
		d.chunk = make([]Value, d.next)
	}
	a := d.chunk[:0:n]
	d.chunk = d.chunk[n:]
	return a
}

func (d *refDecoder) read(v *Value) error {
	t, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	v.Kind = Kind(t)
	switch v.Kind {
	case SimpleString, ErrorString:
		s, err := readBoundedLine(d.r, maxInlineLen)
		if err != nil {
			return err
		}
		if len(s) < 2 || s[len(s)-2] != '\r' {
			return errors.New("resp: line missing CRLF")
		}
		v.Str = s[:len(s)-2]
		return nil
	case Integer:
		v.Int, err = d.readInt()
		return err
	case BulkString:
		n, err := d.readLen("bulk", maxBulkLen)
		if err != nil {
			return err
		}
		if n == -1 {
			v.Null = true
			return nil
		}
		buf := make([]byte, n+2)
		if _, err := io.ReadFull(d.r, buf); err != nil {
			return err
		}
		if buf[n] != '\r' || buf[n+1] != '\n' {
			return fmt.Errorf("resp: bulk string missing CRLF")
		}
		v.Str = string(buf[:n])
		return nil
	case Array:
		n, err := d.readLen("array", maxArrayLen)
		if err != nil {
			return err
		}
		if n == -1 {
			v.Null = true
			return nil
		}
		a := d.array(n)
		for len(a) < n {
			if len(a) == cap(a) {
				a = append(make([]Value, 0, min(int(n), 2*cap(a))), a...)
			}
			a = a[:len(a)+1]
			if err := d.read(&a[len(a)-1]); err != nil {
				return err
			}
		}
		v.Array = a
		return nil
	default:
		return fmt.Errorf("resp: unexpected type byte %q", t)
	}
}

func (d *refDecoder) readLen(what string, limit int) (int, error) {
	n, err := d.readInt()
	if err == nil && (n < -1 || n > int64(limit)) {
		err = fmt.Errorf("resp: bad %s length %d", what, n)
	}
	return int(n), err
}

func (d *refDecoder) readInt() (int64, error) {
	line, err := d.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return 0, fmt.Errorf("resp: integer line too large (> %d bytes)", d.r.Size())
	}
	if err != nil {
		return 0, err
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return 0, errors.New("resp: line missing CRLF")
	}
	line = line[:len(line)-2]
	var n int64
	plain := len(line) > 0 && len(line) <= 18
	for _, c := range line {
		plain = plain && c >= '0' && c <= '9'
		n = n*10 + int64(c-'0')
	}
	if !plain {
		if n, err = strconv.ParseInt(string(line), 10, 64); err != nil {
			return 0, fmt.Errorf("resp: bad integer %q", line)
		}
	}
	return n, nil
}

// zeroValues reports whether every slot of s, up to its capacity, is
// the zero Value: a scratch that holds no element of any reply.
func zeroValues(s []Value) bool {
	for _, e := range s[:cap(s)] {
		if e.Kind != 0 || e.Null || e.Str != "" || e.Int != 0 || e.Array != nil {
			return false
		}
	}
	return true
}

// FuzzReadMatchesReference feeds the same bytes to Read, to the
// decoder a Client runs (with its scratch), and to refRead, through
// readers whose windows end mid-line: one byte per read, half of each
// read, and a 16-byte buffer. Two values in a row must decode equal,
// fail with the same error, and leave the same bytes unread.
func FuzzReadMatchesReference(f *testing.F) {
	seeds := []string{
		// FuzzRead's corpus.
		"+OK\r\n",
		"-ERR boom\r\n",
		"-lower case, no code\r\n",
		"+bare\rCR\r\n",
		":42\r\n",
		":-9223372036854775808\r\n",
		":9223372036854775807\r\n",
		":9223372036854775808\r\n",
		":+5\r\n",
		":0000000000000000000000012\r\n",
		"$5\r\nhello\r\n",
		"$-1\r\n",
		"*2\r\n$4\r\nPING\r\n$1\r\nx\r\n",
		"*3\r\n*2\r\n$1\r\nv\r\n$2\r\nto\r\n*2\r\n*2\r\n:1\r\n:2\r\n*2\r\n:3\r\n:4\r\n*0\r\n",
		"*-1\r\n",
		"*1000000\r\n",
		"$99999999999\r\n",
		"garbage",
		"*1\r\n$" + strings.Repeat("9", 5000),
		":" + strings.Repeat("1", 5000) + "\r\n",
		"*" + strings.Repeat("1", 5000),
		"+" + strings.Repeat("x", maxInlineLen+1),
		// Lines at the window parse's edges. The first line of a read
		// fills the buffer through the slow path; later ones are parsed
		// in the window.
		":123456789012345678\r\n:1234567890123456789\r\n",
		"*3\r\n:1\r\n:9223372036854775808\r\n:-5\r\n",
		"*2000000\r\n:1\r\n",
		"*17\r\n" + strings.Repeat(":7\r\n", 16) + "*20\r\n" + strings.Repeat(":8\r\n", 20) + ":9\r\n",
		":1\r\n:1\r:2\r\n",
		":0\r\n:\r\n:5\r\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(encodeWith(f, queryReply{asCells(denseResult(6000, 2))}.encode))
	shapes := []struct {
		name string
		open func([]byte) *bufio.Reader
	}{
		{"one-byte", func(b []byte) *bufio.Reader { return bufio.NewReader(iotest.OneByteReader(bytes.NewReader(b))) }},
		{"half", func(b []byte) *bufio.Reader { return bufio.NewReader(iotest.HalfReader(bytes.NewReader(b))) }},
		{"16-byte", func(b []byte) *bufio.Reader { return bufio.NewReaderSize(bytes.NewReader(b), 16) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, shape := range shapes {
			var scratch []Value
			decoders := []struct {
				name string
				read func(*bufio.Reader) (Value, error)
			}{
				{"Read", Read},
				{"client", func(r *bufio.Reader) (Value, error) { return readValue(r, &scratch) }},
			}
			for _, dec := range decoders {
				got, want := shape.open(data), shape.open(data)
				for i := 0; i < 2; i++ {
					gv, gerr := dec.read(got)
					wv, werr := refRead(want)
					if fmt.Sprint(gerr) != fmt.Sprint(werr) {
						t.Fatalf("%s/%s value %d: error %v, reference %v", shape.name, dec.name, i, gerr, werr)
					}
					if !reflect.DeepEqual(gv, wv) {
						t.Fatalf("%s/%s value %d: decoded %+v, reference %+v", shape.name, dec.name, i, gv, wv)
					}
				}
				gotRest, gerr := io.ReadAll(got)
				wantRest, werr := io.ReadAll(want)
				if gerr != nil || werr != nil || !bytes.Equal(gotRest, wantRest) {
					t.Fatalf("%s/%s: %d bytes left (%v), reference %d (%v)", shape.name, dec.name, len(gotRest), gerr, len(wantRest), werr)
				}
			}
			if !zeroValues(scratch) {
				t.Fatalf("%s: the client scratch still holds elements", shape.name)
			}
		}
	})
}
