package span

import (
	"io"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

// jsonChunk is how many bytes a JSONWriter buffers before it hands
// them to its io.Writer.
const jsonChunk = 32 << 10

// JSONWriter streams one JSON document in the layout encoding/json's
// Encoder writes with SetIndent("", indent): each element of a
// non-empty object or array on a line of its own, indented one level
// per enclosing container, a space after each key's colon, empty
// containers as {} and [], and a newline after the document. Strings
// get encoding/json's escapes, HTML characters included, and floats
// its formatting. It is the writer behind the Chrome export and
// metrics.WriteJSON, which keep no intermediate values: each value is
// appended to one reused buffer that goes to the io.Writer in chunks.
// The Chrome export appends whole events to that buffer itself,
// starting each with elem and ending it with spill.
//
// The caller writes a value after each Key and closes what it opens;
// the writer does not check that. The first write error sticks:
// nothing is written after it, and Close returns it.
type JSONWriter struct {
	w        io.Writer
	b        []byte
	indents  string // a comma, a newline, then the indent of at least depth levels
	sep      string // what precedes an element: indents through depth levels
	step     int    // the length of one indent level
	depth    int    // containers open
	empty    bool   // the innermost open container has no element yet
	afterKey bool   // a key was written: its value follows on its line
	err      error
}

// NewJSONWriter returns a writer of one document to w, indenting each
// level by indent.
func NewJSONWriter(w io.Writer, indent string) *JSONWriter {
	return &JSONWriter{w: w, b: make([]byte, 0, 2*jsonChunk), indents: ",\n" + strings.Repeat(indent, 8), step: len(indent)}
}

// OpenObject opens an object as the next value.
func (j *JSONWriter) OpenObject() { j.open('{') }

// CloseObject closes the innermost open object.
func (j *JSONWriter) CloseObject() { j.close('}') }

// OpenArray opens an array as the next value.
func (j *JSONWriter) OpenArray() { j.open('[') }

// CloseArray closes the innermost open array.
func (j *JSONWriter) CloseArray() { j.close(']') }

// Key writes the next key of the innermost open object; the value
// follows. k is written as it is, so it must be a name JSON needs no
// escape for, as every key of the exported schemas is.
func (j *JSONWriter) Key(k string) *JSONWriter {
	j.elem()
	j.b = append(j.b, '"')
	j.b = append(j.b, k...)
	j.b = append(j.b, '"', ':', ' ')
	j.afterKey = true
	return j
}

// String writes s as a JSON string.
func (j *JSONWriter) String(s string) {
	j.value()
	j.b = appendString(j.b, s)
}

// Int writes v.
func (j *JSONWriter) Int(v int64) {
	j.value()
	j.b = strconv.AppendInt(j.b, v, 10)
}

// Bool writes v.
func (j *JSONWriter) Bool(v bool) {
	j.value()
	j.b = strconv.AppendBool(j.b, v)
}

// Null writes null, as encoding/json writes a nil slice or pointer.
func (j *JSONWriter) Null() {
	j.value()
	j.b = append(j.b, "null"...)
}

// Close ends the document with a newline, hands the rest of the buffer
// to the io.Writer and returns the first write error.
func (j *JSONWriter) Close() error {
	j.b = append(j.b, '\n')
	j.flush()
	return j.err
}

// appendFloat appends f as encoding/json writes it: zero and
// magnitudes in [1e-6, 1e21) in plain decimal, any other in exponent
// form without a leading zero in the exponent. f must be finite.
func appendFloat(b []byte, f float64) []byte {
	if abs := math.Abs(f); abs == 0 || abs >= 1e-6 && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 -> e-7
		b = b[:n-1]
	}
	return b
}

func (j *JSONWriter) open(c byte) {
	j.value()
	j.b = append(j.b, c)
	j.setDepth(j.depth + 1)
	j.empty = true
}

func (j *JSONWriter) close(c byte) {
	j.setDepth(j.depth - 1)
	if !j.empty {
		j.b = append(j.b, j.sep[1:]...)
	}
	j.b = append(j.b, c)
	j.empty = false
	j.spill()
}

// value starts the next value: on its key's line after a key, as the
// next element otherwise.
func (j *JSONWriter) value() {
	if j.afterKey {
		j.afterKey = false
		return
	}
	j.elem()
}

// elem starts the next element of the innermost open container on a
// line of its own, after a comma unless it is the first.
func (j *JSONWriter) elem() {
	if j.depth == 0 {
		return
	}
	sep := j.sep
	if j.empty {
		sep = sep[1:]
	}
	j.empty = false
	j.b = append(j.b, sep...)
}

func (j *JSONWriter) setDepth(d int) {
	n := 2 + d*j.step
	for len(j.indents) < n {
		j.indents += j.indents[2:] // deeper than ever before: double the indent
	}
	j.depth, j.sep = d, j.indents[:n]
}

// spill hands the buffer to w once it holds a chunk.
func (j *JSONWriter) spill() {
	if len(j.b) >= jsonChunk {
		j.flush()
	}
}

// flush hands the buffered bytes to w unless an error came first.
func (j *JSONWriter) flush() {
	if j.err == nil {
		_, j.err = j.w.Write(j.b)
	}
	j.b = j.b[:0]
}

const hexDigits = "0123456789abcdef"

// jsonPlain marks the ASCII bytes a JSON string holds as they are:
// printable characters other than '"', '\\' and the HTML characters
// '<', '>' and '&'.
var jsonPlain = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

// appendString appends s as encoding/json writes a string: printable
// ASCII other than '"', '\\', '<', '>' and '&' as it is, the short
// escapes for '"', '\\', \b, \f, \n, \r and \t, \u00XX for the other
// control bytes and the three HTML characters, \ufffd for each byte
// of invalid UTF-8, \u2028 and \u2029 for the JavaScript line
// separators, and any other text as it is.
func appendString[S string | []byte](b []byte, s S) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if jsonPlain[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(string(s[i:min(len(s), i+utf8.UTFMax)]))
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
