// Package resp implements the Redis serialization protocol (RESP2) and
// a TCP server/client pair exposing the graph database the way
// RedisGraph does: GRAPH.QUERY, GRAPH.EXPLAIN, GRAPH.DELETE and
// GRAPH.LIST commands plus the basic PING/ECHO/QUIT.
package resp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unsafe"
)

// Value is one RESP value. Exactly one field is meaningful per Kind.
type Value struct {
	Kind  Kind
	Null  bool    // null bulk string / null array
	Str   string  // SimpleString, BulkString, Error
	Int   int64   // Integer
	Array []Value // Array
}

// Kind enumerates RESP2 types.
type Kind byte

const (
	SimpleString Kind = '+'
	ErrorString  Kind = '-'
	Integer      Kind = ':'
	BulkString   Kind = '$'
	Array        Kind = '*'
)

// Helpers for building replies.

// OK is the +OK reply.
func OK() Value { return Value{Kind: SimpleString, Str: "OK"} }

// Simple builds a simple string.
func Simple(s string) Value { return Value{Kind: SimpleString, Str: s} }

// Errorf builds an error reply.
func Errorf(format string, args ...any) Value {
	return Value{Kind: ErrorString, Str: fmt.Sprintf(format, args...)}
}

// Bulk builds a bulk string.
func Bulk(s string) Value { return Value{Kind: BulkString, Str: s} }

// Int builds an integer.
func Int(n int64) Value { return Value{Kind: Integer, Int: n} }

// Arr builds an array.
func Arr(vs ...Value) Value { return Value{Kind: Array, Array: vs} }

// Write encodes a value onto w. It and the helpers under it do not
// check each write: a bufio.Writer keeps its first write error and
// returns it from every later write — the empty one that ends Write,
// and the connection's Flush.
func Write(w *bufio.Writer, v Value) error {
	switch {
	case v.Kind == SimpleString:
		writeLine(w, "+", v.Str)
	case v.Kind == ErrorString && hasErrorCode(v.Str):
		writeLine(w, "-", v.Str)
	case v.Kind == ErrorString:
		writeLine(w, "-ERR ", v.Str)
	case v.Kind == Integer:
		writeInt(w, Integer, v.Int)
	case v.Kind == BulkString && v.Null:
		w.WriteString("$-1\r\n")
	case v.Kind == BulkString:
		writeBulk(w, v.Str)
	case v.Kind == Array && v.Null:
		w.WriteString("*-1\r\n")
	case v.Kind == Array:
		writeInt(w, Array, int64(len(v.Array)))
		for _, e := range v.Array {
			if err := Write(w, e); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("resp: unknown kind %q", v.Kind)
	}
	_, err := w.Write(nil)
	return err
}

// maxIntLine is the longest "<kind><int64>\r\n" line.
const maxIntLine = 1 + len("-9223372036854775808") + 2

// appendInt appends the line "<kind><n>\r\n": an integer or a length.
func appendInt(b []byte, kind Kind, n int64) []byte {
	return append(strconv.AppendInt(append(b, byte(kind)), n, 10), '\r', '\n')
}

// room returns w's free buffer space to append to and then w.Write: at
// least n bytes (n <= w.Size()), so that the append stays in place.
func room(w *bufio.Writer, n int) []byte {
	if w.Available() < n {
		w.Flush()
	}
	return w.AvailableBuffer()
}

func writeInt(w *bufio.Writer, kind Kind, n int64) {
	w.Write(appendInt(room(w, maxIntLine), kind, n))
}

func writeBulk(w *bufio.Writer, s string) {
	writeInt(w, BulkString, int64(len(s)))
	w.WriteString(s)
	w.WriteString("\r\n")
}

// crlfToSpace makes a message safe for a simple-string or error line,
// as Redis does: a CR or LF in it (an error echoing a client's argument,
// say) would leave the rest to be read as the next reply.
var crlfToSpace = strings.NewReplacer("\r", " ", "\n", " ")

func writeLine(w *bufio.Writer, prefix, msg string) {
	w.WriteString(prefix)
	w.WriteString(crlfToSpace.Replace(msg))
	w.WriteString("\r\n")
}

// hasErrorCode reports whether an error message already starts with a
// Redis-style uppercase code ("BUSY ...", "LOADING ..."), in which
// case Write must not prepend the default ERR code.
func hasErrorCode(msg string) bool {
	code, _, _ := strings.Cut(msg, " ")
	if len(code) < 3 {
		return false
	}
	for _, r := range code {
		if r < 'A' || r > 'Z' {
			return false
		}
	}
	return true
}

// Busyf builds a Redis-style BUSY error reply — the overload-shedding
// refusal clients may treat as transient and retry.
func Busyf(format string, args ...any) Value {
	return Value{Kind: ErrorString, Str: "BUSY " + fmt.Sprintf(format, args...)}
}

// maxBulkLen bounds bulk payloads (16 MiB) to keep a broken peer from
// forcing huge allocations.
const maxBulkLen = 16 << 20

// maxArrayLen bounds client command arrays (1M elements, Redis's
// multibulk cap): a hostile length prefix must not pre-commit the
// server to unbounded element parsing.
const maxArrayLen = 1 << 20

// maxReplyArrayLen bounds the arrays of a reply a Client reads (1G
// elements), far past any answer a server sends: one chunk of a sweep
// over the paper's largest graph returns 2.2M rows. An array grows only
// as its elements arrive, so a length prefix commits no memory up front.
const maxReplyArrayLen = 1 << 30

// Read decodes one value from r, within the bounds of a command.
func Read(r *bufio.Reader) (Value, error) {
	return readValue(r, nil)
}

// readValue decodes one value from r within the bounds of a command; a
// non-nil scratch lends the first long array its growing room (see
// decoder.long).
func readValue(r *bufio.Reader, scratch *[]Value) (Value, error) {
	return decode(r, scratch, maxArrayLen)
}

// decode decodes one value from r whose arrays hold at most maxArray
// elements; a non-nil scratch lends the first long array its growing
// room (see decoder.long). The bytes parsed from the window go back to
// r on every return.
func decode(r *bufio.Reader, scratch *[]Value, maxArray int) (Value, error) {
	d := decoder{r: r, scratch: scratch, maxArray: maxArray}
	var v Value
	err := d.read(&v)
	d.sync()
	return v, err
}

// decoder reads one top-level value. Integer and array-length lines are
// parsed where they lie in the reader's buffer (the window); anything
// else is read through the reader. Its small arrays (the rows of a
// query reply) are cut from shared chunks, and every element is decoded
// in its place in its array: a Value is 56 bytes.
type decoder struct {
	r        *bufio.Reader
	win      []byte   // r's buffered bytes, valid until the next call on r
	pos      int      // bytes of win parsed; r has not yet skipped them
	chunk    []Value  // unused rest of the current chunk, all zero
	next     int      // size of the chunk to allocate when this one is used up
	scratch  *[]Value // room to grow one long array in, or nil
	maxArray int      // the longest array accepted
}

// Arrays of up to slabArrayMax elements share chunks, which double from
// slabChunkMin values up to slabChunkMax, the most that fit in 32 KiB
// (a chunk of 512 would be 28 KiB, rounded up to the same size class):
// a command or a short reply takes little, a long reply a chunk per few
// hundred rows.
const (
	slabArrayMax = 16
	slabChunkMin = 16
	slabChunkMax = (32 << 10) / int(unsafe.Sizeof(Value{}))
)

// sync hands the parsed part of the window back to the reader. It must
// run before any other call on d.r, which may move the buffer's bytes.
func (d *decoder) sync() {
	if d.pos > 0 {
		d.r.Discard(d.pos) // never short: the bytes are buffered
	}
	d.win, d.pos = nil, 0
}

// windowLine parses an integer or array-length line of 1 to 18 plain
// digits at the head of the window. It reports false, consuming
// nothing, for anything else: a sign, 19 digits, another kind, or a line
// the window does not hold to its end.
func (d *decoder) windowLine() (Kind, int64, bool) {
	if d.pos == len(d.win) {
		d.sync()
		d.win, _ = d.r.Peek(d.r.Buffered()) // never fails: the bytes are buffered
	}
	b := d.win[d.pos:]
	if len(b) < 4 || (b[0] != byte(Integer) && b[0] != byte(Array)) {
		return 0, 0, false
	}
	var n int64
	i := 1
	for ; i < len(b) && i <= 18 && b[i] >= '0' && b[i] <= '9'; i++ {
		n = n*10 + int64(b[i]-'0')
	}
	if i == 1 || i+1 >= len(b) || b[i] != '\r' || b[i+1] != '\n' {
		return 0, 0, false
	}
	d.pos += i + 2
	return Kind(b[0]), n, true
}

// array returns space for n elements: all of it when small, otherwise
// to grow as they arrive, so a hostile length commits no memory.
func (d *decoder) array(n int) []Value {
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

// read decodes the next value into *v, which is zero.
func (d *decoder) read(v *Value) error {
	kind, n, ok := d.windowLine()
	v.Kind = kind
	if !ok {
		d.sync()
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
		case BulkString:
			n, err := d.readInt()
			if err != nil {
				return err
			}
			if err := checkLen("bulk", n, maxBulkLen); err != nil {
				return err
			}
			if n == -1 {
				v.Null = true
				return nil
			}
			s, err := readBulk(d.r, int(n))
			if err != nil {
				return err
			}
			v.Str = s
			return nil
		case Integer, Array:
			if n, err = d.readInt(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("resp: unexpected type byte %q", t)
		}
	}
	if v.Kind == Integer {
		v.Int = n
		return nil
	}
	if err := checkLen("array", n, d.maxArray); err != nil {
		return err
	}
	if n == -1 {
		v.Null = true
		return nil
	}
	if n > slabArrayMax && d.scratch != nil {
		return d.long(v, int(n))
	}
	a, err := d.fill(d.array(int(n)), int(n))
	if err != nil {
		return err
	}
	v.Array = a
	return nil
}

// readBulk reads a bulk payload of n bytes and its CRLF. Its buffer
// starts at what r holds buffered and doubles as the bytes arrive, so
// a declared length commits memory only as the peer sends it.
func readBulk(r *bufio.Reader, n int) (string, error) {
	buf := make([]byte, 0, min(n+2, max(r.Buffered(), 512)))
	for len(buf) < n+2 {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n+2, 2*cap(buf))), buf...)
		}
		m, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if err == io.EOF && len(buf) > 0 {
			err = io.ErrUnexpectedEOF // as one ReadFull of the payload reports it
		}
		buf = buf[:len(buf)+m]
		if err != nil {
			return "", err
		}
	}
	if buf[n] != '\r' || buf[n+1] != '\n' {
		return "", fmt.Errorf("resp: bulk string missing CRLF")
	}
	return string(buf[:n]), nil
}

// fill decodes elements onto a until it holds n, in place, growing it as
// they arrive. It returns a with the element it failed on, if any.
func (d *decoder) fill(a []Value, n int) ([]Value, error) {
	for len(a) < n {
		if len(a) == cap(a) {
			// Double: append's 1.25x copies 6000 rows five times over.
			a = append(make([]Value, 0, min(n, max(2*cap(a), 1024))), a...)
		}
		a = a[:len(a)+1]
		if err := d.read(&a[len(a)-1]); err != nil {
			return a, err
		}
	}
	return a, nil
}

// scratchKeepMax is the largest scratch (in elements, 3.5 MiB) kept
// for the next reply; a longer one is dropped rather than held for the
// client's lifetime.
const scratchKeepMax = 1 << 16

// long decodes an array of n > slabArrayMax elements in the scratch,
// then copies it once into an exact-length array. The scratch is
// cleared again whether or not the array was whole, so it keeps no
// reference into this reply or a torn one; an array nested in this one
// grows on its own.
func (d *decoder) long(v *Value, n int) error {
	scratch := d.scratch
	d.scratch = nil
	a, err := d.fill((*scratch)[:0], n)
	if err == nil {
		v.Array = append(make([]Value, 0, n), a...)
	}
	if cap(a) > scratchKeepMax {
		a = nil
	}
	clear(a)
	*scratch, d.scratch = a[:0], scratch
	return err
}

// checkLen bounds a bulk or array length: -1 for null, at most limit.
func checkLen(what string, n int64, limit int) error {
	if n < -1 || n > int64(limit) {
		return fmt.Errorf("resp: bad %s length %d", what, n)
	}
	return nil
}

// readInt parses the rest of an integer or length line where it lies in
// the reader's buffer; a line that does not fit there is refused.
func (d *decoder) readInt() (int64, error) {
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
	// Up to 18 digits cannot overflow; anything else (a sign, 19 digits,
	// garbage) takes strconv's word for it.
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

// Strings extracts a command's words from a client array.
func Strings(v Value) ([]string, error) {
	if v.Kind != Array || v.Null {
		return nil, fmt.Errorf("resp: expected command array")
	}
	out := make([]string, len(v.Array))
	for i, e := range v.Array {
		switch e.Kind {
		case BulkString, SimpleString:
			out[i] = e.Str
		default:
			return nil, fmt.Errorf("resp: command element %d is not a string", i)
		}
	}
	return out, nil
}
