package ingest

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"io"
)

// Content sniffing shared by the loaders (internal/traceio and
// internal/store both need it; keeping it here avoids an import cycle
// between them).

// sniffLen is how much of a trace's head Unwrap peeks for sniffing.
const sniffLen = 4096

// Unwrap opens r for sniffing and reading: a gzip stream is decompressed
// transparently, and head is the first up to 4 KiB of the content, peeked
// from br without consuming it. Decompression holds no resources, so
// there is nothing to close.
func Unwrap(r io.Reader) (br *bufio.Reader, head []byte, err error) {
	br = bufio.NewReaderSize(r, chunkSize)
	if magic, err := br.Peek(2); err == nil && IsGzip(magic) {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, nil, err
		}
		br = bufio.NewReaderSize(gz, chunkSize)
	}
	head, err = br.Peek(sniffLen)
	if err != nil && err != io.EOF {
		return nil, nil, err
	}
	return br, head, nil
}

// gzipMagic is the two-byte header every gzip stream starts with.
var gzipMagic = []byte{0x1f, 0x8b}

// IsGzip reports whether head starts a gzip stream.
func IsGzip(head []byte) bool {
	return len(head) >= 2 && bytes.Equal(head[:2], gzipMagic)
}

// IsPaje reports whether the first non-blank, non-comment line of the
// peeked head starts a Paje header ('%'). It works on raw bytes so
// sniffing allocates nothing.
func IsPaje(head []byte) bool {
	for len(head) > 0 {
		var line []byte
		if nl := bytes.IndexByte(head, '\n'); nl >= 0 {
			line, head = head[:nl], head[nl+1:]
		} else {
			line, head = head, nil
		}
		t := bytes.TrimSpace(line)
		if len(t) == 0 || t[0] == '#' {
			continue
		}
		return t[0] == '%'
	}
	return false
}
