(** ASCII rendering of figure series and tables. *)

open Engine

val table :
  Format.formatter ->
  header:string list ->
  rows:string list list ->
  unit ->
  unit
(** Column-aligned table with a rule under the header. *)

val series_table :
  Format.formatter ->
  title:string ->
  x_label:string ->
  series:Stats.Series.t list ->
  unit
(** One row per x value (union of all series), one column per series;
    missing points print as "-".  Values are printed with one decimal. *)

val bar : float -> max:float -> width:int -> string
(** A proportional ASCII bar, for quick visual curve shapes. *)

val section : Format.formatter -> string -> unit
(** An underlined section heading. *)

type span = { label : string; start : Time.t; finish : Time.t }

val timeline : Format.formatter -> width:int -> span list -> unit
(** An ASCII Gantt chart of stage spans (used by fig7's pipeline view). *)

val series_csv : x_label:string -> Engine.Stats.Series.t list -> string
(** CSV text for a set of series: header then one row per x value, empty
    cells where a series has no point. *)
