package dtrace

// The -trace-csv debug rendering: a flat, human-greppable projection of
// a dtrace/v1 stream. One row per record, the candidate set flattened to
// "id:key|id:key|…". Columns absent from the trace render empty.

import (
	"fmt"
	"strconv"
)

// CSVHeader is the column row of the CSV rendering, without the optional
// leading "trial" column.
const CSVHeader = "t_ns,core,kind,thread,other,wait_ns,digest,cand"

// AppendCSV renders the trace's records as CSV rows appended to dst,
// prefixing each row with the trial column when trial is non-empty. It
// does not write a header row — callers own that (and the choice of the
// trial column).
func (tr *Trace) AppendCSV(dst []byte, trial string) []byte {
	has := map[string]bool{}
	for _, c := range tr.Header.Columns {
		has[c.Name] = true
	}
	for i := range tr.Recs {
		r := &tr.Recs[i]
		if trial != "" {
			dst = append(dst, trial...)
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, r.T, 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Core), 10)
		dst = append(dst, ',')
		dst = append(dst, r.Kind.String()...)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Thread), 10)
		dst = append(dst, ',')
		if has["other"] {
			dst = strconv.AppendInt(dst, int64(r.Other), 10)
		}
		dst = append(dst, ',')
		if has["wait_ns"] {
			dst = strconv.AppendInt(dst, r.WaitNS, 10)
		}
		dst = append(dst, ',')
		if has["digest"] {
			dst = append(dst, fmt.Sprintf("%016x", r.Digest)...)
		}
		dst = append(dst, ',')
		for j, c := range r.Cand {
			if j > 0 {
				dst = append(dst, '|')
			}
			dst = strconv.AppendInt(dst, int64(c.ID), 10)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, c.Key, 10)
		}
		dst = append(dst, '\n')
	}
	return dst
}
