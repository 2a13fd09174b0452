package harness

import (
	"encoding/json"
	"io"
)

// SummaryHeader opens every distilled summary export. Embedded first in
// each summary type, its fields marshal flat and in this order, ahead of
// the experiment-specific rows.
type SummaryHeader struct {
	Schema   string `json:"schema"`
	ID       string `json:"id"`
	Title    string `json:"title"`
	BaseSeed int64  `json:"base_seed"`
	Runs     int    `json:"runs"`
}

// header returns the summary header for a campaign report.
func header(schema string, rep *Report) SummaryHeader {
	return SummaryHeader{Schema: schema, ID: rep.ID, Title: rep.Title, BaseSeed: rep.BaseSeed, Runs: rep.Runs}
}

// Header returns the summary's header; embedding promotes it to every
// summary type.
func (h SummaryHeader) Header() SummaryHeader { return h }

// Summary is a campaign report distilled for one experiment: a
// schema-tagged export and its console rendering, one line per row.
type Summary interface {
	Header() SummaryHeader
	Lines() []string
}

// Distiller names the file a summary is exported to and builds it from
// the experiment's campaign report.
type Distiller struct {
	File  string
	Build func(*Report) Summary
}

// Distillers maps an experiment ID to its summary export. Like the
// campaign export they derive from, the summaries depend only on
// (experiment, base seed, runs) — never on worker count.
var Distillers = map[string]Distiller{
	"E13-T": {"tournament.json", func(r *Report) Summary { return BuildTournament(r) }},
	"E14":   {"survive.json", func(r *Report) Summary { return BuildFrontier(r) }},
	"E15":   {"names.json", func(r *Report) Summary { return BuildNames(r) }},
}

// WriteSummaryJSON writes a summary as deterministic indented JSON
// under its schema.
func WriteSummaryJSON(w io.Writer, s Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
