package experiments

import (
	"bytes"
	"fmt"
	"html/template"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lpp/internal/workload"
)

// usesSharedAnalyses names the experiments whose body calls
// Options.analyze — the ones a prewarmed Cache accelerates. fig1,
// fig2, fig5, and table1 run their own bespoke pipelines (custom
// sampling configurations, metered runs) and are excluded.
var usesSharedAnalyses = map[string]bool{
	"fig3": true, "fig4": true, "fig6": true,
	"table2": true, "table3": true, "table4": true, "table5": true, "table6": true,
	"xdvfs": true, "xidealism": true,
}

// prewarmFor fills o.Cache concurrently when any selected experiment
// consumes the shared per-workload analyses.
func (o Options) prewarmFor(exps []Experiment) error {
	if o.Cache == nil {
		return nil
	}
	for _, e := range exps {
		if usesSharedAnalyses[e.Name] {
			return o.Prewarm(workload.Predictable())
		}
	}
	return nil
}

// RunReport runs experiments in order, writing each report to w under
// a "==== name: title ====" header. When o.Cache is set and any
// selected experiment consumes the shared per-workload analyses, the
// cache is first prewarmed concurrently under GOMAXPROCS workers, so
// every workload's training trace is replayed exactly once for the
// whole report. The report bytes are deterministic and identical at
// every GOMAXPROCS: concurrency lives entirely in the prewarm, while the
// experiments themselves run — and print — strictly in order.
func RunReport(w io.Writer, exps []Experiment, o Options) error {
	if err := o.prewarmFor(exps); err != nil {
		return err
	}
	for _, e := range exps {
		fmt.Fprintf(w, "==== %s: %s ====\n", e.Name, e.Title)
		opts := o
		opts.W = w
		if err := e.Run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// HTMLReport runs the given experiments and writes a single
// self-contained HTML page: each experiment's text report in a <pre>
// block, with any SVG artifacts it produced inlined below it. OutDir
// is required (the SVGs are rendered there and then embedded).
func HTMLReport(w io.Writer, exps []Experiment, o Options) error {
	if o.OutDir == "" {
		return fmt.Errorf("experiments: HTMLReport needs Options.OutDir")
	}
	if err := o.prewarmFor(exps); err != nil {
		return err
	}
	type section struct {
		Name, Title string
		Body        string
		SVGs        []template.HTML
	}
	var sections []section
	for _, e := range exps {
		var buf bytes.Buffer
		opts := o
		opts.W = &buf
		if err := e.Run(opts); err != nil {
			return fmt.Errorf("%s: %w", e.Name, err)
		}
		s := section{Name: e.Name, Title: e.Title, Body: buf.String()}
		for _, svg := range svgArtifacts(o.OutDir, e.Name) {
			data, err := os.ReadFile(svg)
			if err != nil {
				return err
			}
			// The SVGs are generated by internal/plot from escaped
			// inputs; embed them verbatim.
			s.SVGs = append(s.SVGs, template.HTML(data))
		}
		sections = append(sections, s)
	}
	return reportTemplate.Execute(w, map[string]any{"Sections": sections})
}

// svgArtifacts lists the SVG files an experiment wrote, by prefix.
func svgArtifacts(dir, name string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), name+"_") && strings.HasSuffix(e.Name(), ".svg") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

var reportTemplate = template.Must(template.New("report").Parse(`<!DOCTYPE html>
<html>
<head>
<meta charset="utf-8">
<title>Locality Phase Prediction — evaluation report</title>
<style>
body { font-family: sans-serif; max-width: 1100px; margin: 2em auto; padding: 0 1em; }
pre { background: #f6f6f6; padding: 1em; overflow-x: auto; font-size: 12px; }
h2 { border-bottom: 1px solid #ccc; padding-bottom: 4px; margin-top: 2em; }
.svg { margin: 1em 0; }
nav a { margin-right: 1em; }
</style>
</head>
<body>
<h1>Locality Phase Prediction — evaluation report</h1>
<p>Regenerated tables and figures of the ASPLOS 2004 paper (see EXPERIMENTS.md
for the paper-vs-measured discussion).</p>
<nav>{{range .Sections}}<a href="#{{.Name}}">{{.Name}}</a>{{end}}</nav>
{{range .Sections}}
<h2 id="{{.Name}}">{{.Title}}</h2>
<pre>{{.Body}}</pre>
{{range .SVGs}}<div class="svg">{{.}}</div>{{end}}
{{end}}
</body>
</html>
`))
