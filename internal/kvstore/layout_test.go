package kvstore

import (
	"bytes"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// headerFields is the header as the code has it, in offset order.
var headerFields = []struct {
	name      string
	off, size int
}{
	{"hnext", offHNext, 4},
	{"key length", offKeyLen, 1},
	{"slab class", offClass, 1},
	{"bag", offBag, 2},
	{"prev", offPrev, 4},
	{"next", offNext, 4},
	{"CAS id", offCAS, 8},
	{"expiry", offExpire, 4},
	{"flags", offFlags, 4},
	{"value length", offValueLen, 3},
	{"referenced", offRef, 1},
}

// TestHeaderLayout pins the one chunk layout: 36 bytes, tiled by the
// fields with no gap or overlap, described by the table in DESIGN.md,
// and with the two tenants of the length word keeping out of each
// other's bytes.
func TestHeaderLayout(t *testing.T) {
	if itemHeaderSize > 36 {
		t.Fatalf("itemHeaderSize = %d, want at most 36", itemHeaderSize)
	}
	at := 0
	for _, f := range headerFields {
		if f.off != at {
			t.Fatalf("%s is at offset %d, the fields before it end at %d", f.name, f.off, at)
		}
		at += f.size
	}
	if at != itemHeaderSize {
		t.Fatalf("the fields cover %d bytes, itemHeaderSize is %d", at, itemHeaderSize)
	}

	t.Run("design-table", func(t *testing.T) {
		doc, err := os.ReadFile("../../DESIGN.md")
		if err != nil {
			t.Fatal(err)
		}
		_, section, ok := strings.Cut(string(doc), "### Chunk layout")
		if !ok {
			t.Fatal(`DESIGN.md has no "### Chunk layout" section`)
		}
		rows := regexp.MustCompile(`(?m)^\| (\d+) \| (\d*) ?\| ([^|]+) \|`).FindAllStringSubmatch(section, len(headerFields)+1)
		if len(rows) != len(headerFields)+1 {
			t.Fatalf("the table has %d rows, want one per field and one for the key: %d", len(rows), len(headerFields)+1)
		}
		for i, f := range headerFields {
			off, _ := strconv.Atoi(rows[i][1])
			size, _ := strconv.Atoi(rows[i][2])
			name := strings.Trim(rows[i][3], " `")
			if off != f.off || size != f.size || name != f.name {
				t.Errorf("row %d reads %q at %d for %d bytes; the code has %q at %d for %d", i, name, off, size, f.name, f.off, f.size)
			}
		}
		if off, _ := strconv.Atoi(rows[len(headerFields)][1]); off != itemHeaderSize {
			t.Errorf("the table puts the key at %d, the code at %d", off, itemHeaderSize)
		}
	})

	t.Run("length-and-referenced", func(t *testing.T) {
		mem := newTestMem(t)
		class, _ := mem.alloc.classFor(mem.alloc.pageSize)
		size := mem.alloc.chunkSize(class)
		key := []byte("k")
		longest := bytes.Repeat([]byte{0xff}, size-itemHeaderSize-len(key))
		c := mem.alloc.chunk(mem.alloc.alloc(class))
		check := func(when string, valueLen int, referenced bool) {
			t.Helper()
			if c.valueLen() != valueLen || c.referenced() != referenced {
				t.Fatalf("%s: length %d referenced %v, want %d %v", when, c.valueLen(), c.referenced(), valueLen, referenced)
			}
		}
		c.setReferenced() // what the chunk's last tenant left behind
		c.init(class, size, key, longest)
		check("init", len(longest), false)
		c.setReferenced()
		check("hit", len(longest), true)
		c.setValue(longest[:3], size) // an overwrite in place
		check("overwrite", 3, true)
		c.setValue(longest, size)
		check("overwrite to the longest value", len(longest), true)
		c.clearReferenced()
		check("second chance spent", len(longest), false)
		if maxItemBytes-1 > 1<<24-1 {
			t.Fatalf("maxItemBytes = %d: a value that long does not fit three bytes", maxItemBytes)
		}
	})
}
