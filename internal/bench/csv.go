package bench

import (
	"encoding/csv"
	"fmt"
	"io"
)

// WriteFiguresCSV emits the multiple-source sweep as CSV, one row per
// (graph, query, chunk size) point — the series behind Figures 3-8,
// ready for external plotting.
func WriteFiguresCSV(w io.Writer, series []FigureSeries) error {
	cw := csv.NewWriter(w)
	header := []string{"graph", "query", "chunk_size", "chunks",
		"ms_mean_ms", "smart_mean_ms", "ms_total_ms", "smart_total_ms", "answer_pairs"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points {
			row := []string{
				s.Graph, s.Query,
				fmt.Sprintf("%d", p.ChunkSize), fmt.Sprintf("%d", p.Chunks),
				ms(p.MSMean), ms(p.SmartMean), ms(p.MSTotal), ms(p.SmartTotal),
				fmt.Sprintf("%d", p.Answer),
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
