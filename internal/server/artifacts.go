// Artifact replication protocol (POST /v1/artifacts/export and
// /v1/artifacts/import).
//
// The cluster tier's router replicates hot artifacts by pulling them from
// the owning shard and pushing them into the owner's replica set
// (DESIGN.md §9). Both hops move the artifacts in their persistent binary
// forms — the internal/persist advice codec and the PR 6 `ETB1` table codec
// — framed together with their exact cache keys, so an import is a plain
// cache insertion: no engine work runs on the replica, and a later decode
// for the replicated digest is served from the LRU with engine_computes
// still zero.
//
// Export request is JSON ({"schema", "graph"}); the reply and the import
// request are one binary frame ("LAAR"):
//
//	magic     [4]byte "LAAR"
//	version   u16     (currently 1)
//	schemaLen u16, schema name bytes
//	digestLen u16, graph digest bytes
//	count     u8
//	records, each:
//	  kind   u8  (1 = encoded advice, 2 = compiled table)
//	  keyLen u16, cache key bytes (the §7 advice:/table: key)
//	  payLen u32, payload bytes (persist advice codec / ETB1)
//
// Import replies with JSON {"schema", "graph_digest", "imported"}.
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"io"
	"net/http"
	"strconv"
	"strings"

	"localadvice/internal/eth"
	"localadvice/internal/persist"
)

const (
	artifactMagic   = "LAAR"
	artifactVersion = 1

	artifactAdvice = 1
	artifactTable  = 2
)

// ExportRequest is the body of POST /v1/artifacts/export: which (schema,
// graph) pair's artifacts to bundle. Export always runs through the caches
// (resolving on miss), so exporting from the owner after a warm read is a
// pair of LRU lookups.
type ExportRequest struct {
	Schema string    `json:"schema"`
	Graph  GraphSpec `json:"graph"`
}

// ImportResponse is the reply of POST /v1/artifacts/import.
type ImportResponse struct {
	Schema      string `json:"schema"`
	GraphDigest string `json:"graph_digest"`
	Imported    int    `json:"imported"`
}

// handleExport resolves the (schema, graph) artifacts — encoded advice, plus
// the compiled table for table-compiled schemas — and frames them with their
// cache keys.
func (s *Server) handleExport(r *http.Request) ([]byte, error) {
	var req ExportRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	sc, err := s.resolveSchema(req.Schema)
	if err != nil {
		return nil, err
	}
	cg, _, err := s.resolveGraph(req.Graph, true, "export")
	if err != nil {
		return nil, err
	}
	adv, _, err := s.encodeAdvice(sc, cg, true, "export")
	if err != nil {
		return nil, err
	}
	records := []artifactRecord{{artifactAdvice, adviceKey(sc, cg), persist.EncodeAdvice(adv.advice)}}
	if sc.Compile != nil && sc.TableEncode != nil {
		table, err := s.resolveTable(sc, cg, adv.advice, adv.digest, true, "export")
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := table.SaveBinary(&buf, sc.TableEncode); err == nil {
			records = append(records, artifactRecord{artifactTable, tableKey(sc, cg, adv.digest), buf.Bytes()})
		}
	}
	return encodeArtifactFrame(sc.Name, cg.digest, records), nil
}

// artifactRecord is one record of a LAAR frame.
type artifactRecord struct {
	kind    byte
	key     string
	payload []byte
}

// encodeArtifactFrame writes the LAAR frame of the package comment.
func encodeArtifactFrame(schema, digest string, records []artifactRecord) []byte {
	var b []byte
	b = append(b, artifactMagic...)
	b = binary.LittleEndian.AppendUint16(b, artifactVersion)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(schema)))
	b = append(b, schema...)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(digest)))
	b = append(b, digest...)
	b = append(b, byte(len(records)))
	for _, rec := range records {
		b = append(b, rec.kind)
		b = binary.LittleEndian.AppendUint16(b, uint16(len(rec.key)))
		b = append(b, rec.key...)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.payload)))
		b = append(b, rec.payload...)
	}
	return b
}

// handleImportCtx adapts handleImport to the pooled JSON endpoint shape.
func (s *Server) handleImportCtx(_ context.Context, r *http.Request) (any, error) {
	return s.handleImport(r)
}

// handleImport inserts a replication frame's artifacts into the local cache
// (and writes them through to the store when one is configured). Payloads
// are decoded to their resident forms and keys checked against the frame's
// schema and digest before insertion — a frame that does not parse, or
// that names a key of another kind, schema or graph, is rejected wholesale,
// so a corrupt replication push can never poison the cache.
func (s *Server) handleImport(r *http.Request) (any, error) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return nil, err
	}
	fr := &frameReader{b: body}
	if string(fr.take(4)) != artifactMagic {
		return nil, errf(http.StatusBadRequest, "bad_artifact", "bad magic (want %q)", artifactMagic)
	}
	if v := fr.u16(); v != artifactVersion {
		return nil, errf(http.StatusBadRequest, "bad_artifact", "version %d, want %d", v, artifactVersion)
	}
	schema := string(fr.take(int(fr.u16())))
	digest := string(fr.take(int(fr.u16())))
	count := int(fr.u8())
	if fr.err != nil {
		return nil, errf(http.StatusBadRequest, "bad_artifact", "truncated header")
	}
	sc, err := s.resolveSchema(schema)
	if err != nil {
		return nil, err
	}

	// Decode and validate every record before inserting any of them: a
	// frame corrupt at record k must not leave records 0..k-1 behind.
	type insertion struct {
		key     string
		value   any
		size    int64
		payload []byte
		pstKind persist.Kind
	}
	pending := make([]insertion, 0, count)
	for i := 0; i < count; i++ {
		kind := fr.u8()
		key := string(fr.take(int(fr.u16())))
		payload := fr.take(int(fr.u32()))
		if fr.err != nil {
			return nil, errf(http.StatusBadRequest, "bad_artifact", "truncated record %d", i)
		}
		if kind != artifactAdvice && kind != artifactTable {
			return nil, errf(http.StatusBadRequest, "bad_artifact", "record %d: unknown kind %d", i, kind)
		}
		if !importKeyOK(sc, digest, kind, key) {
			return nil, errf(http.StatusUnprocessableEntity, "bad_artifact",
				"record %d: key %q is not this frame's schema and graph", i, key)
		}
		switch kind {
		case artifactAdvice:
			advice, err := persist.DecodeAdvice(payload)
			if err != nil {
				return nil, errf(http.StatusUnprocessableEntity, "bad_artifact",
					"record %d: bad advice payload: %v", i, err)
			}
			// The same resident type encodeAdvice caches under advice: keys.
			pending = append(pending, insertion{key, newAdviceArtifact(advice), adviceSize(advice), payload, persist.KindAdvice})
		case artifactTable:
			if sc.TableDecode == nil {
				return nil, errf(http.StatusUnprocessableEntity, "bad_artifact",
					"record %d: schema %s has no table codec", i, sc.Name)
			}
			table, err := eth.LoadTableBinary(bytes.NewReader(payload), sc.TableDecode)
			if err != nil {
				return nil, errf(http.StatusUnprocessableEntity, "bad_artifact",
					"record %d: bad table payload: %v", i, err)
			}
			pending = append(pending, insertion{key, table, tableSize(table), payload, persist.KindTable})
		}
	}
	if fr.off != len(fr.b) {
		return nil, errf(http.StatusBadRequest, "bad_artifact", "trailing bytes after record %d", count)
	}

	imported := 0
	for _, ins := range pending {
		if s.cache.Put(ins.key, ins.value, ins.size) {
			imported++
		}
		s.storePut(ins.key, ins.pstKind, ins.payload)
	}
	return &ImportResponse{Schema: schema, GraphDigest: digest, Imported: imported}, nil
}

// importKeyOK reports whether key is the cache key this server writes for
// a record of the given kind under the frame's schema and graph digest:
// exactly adviceKey's form for advice (with ":seed=N" iff the schema is
// seed-dependent), and tableKey's form, ending in a hex advice digest, for
// tables. Any other key would sit in the cache under a name another lookup
// reads, with a value of the wrong type.
func importKeyOK(sc *schemaEntry, digest string, kind byte, key string) bool {
	base := digest + ":" + sc.Name + "@" + sc.Params
	if kind == artifactTable {
		adv, ok := strings.CutPrefix(key, "table:"+base+":")
		return ok && isHexDigest(adv)
	}
	rest, ok := strings.CutPrefix(key, "advice:"+base)
	if !ok || !sc.SeedDependent {
		return ok && rest == ""
	}
	seed, ok := strings.CutPrefix(rest, ":seed=")
	n, err := strconv.ParseInt(seed, 10, 64)
	return ok && err == nil && strconv.FormatInt(n, 10) == seed
}

// isHexDigest reports whether s is a hex SHA-256 as adviceDigest writes it.
func isHexDigest(s string) bool {
	if len(s) != 2*sha256.Size {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
