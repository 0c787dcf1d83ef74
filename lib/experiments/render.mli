(** Text rendering of experiment outputs in the shapes the paper's tables
    and figures use. *)

val printf : ('a, out_channel, unit) format -> 'a
(** The sanctioned stdout formatter for experiment output. Experiment
    modules must not call [Printf.printf] directly (enforced by xmplint's
    [stdout-in-lib] rule); routing prints through here keeps a single
    choke point for future redirection of experiment output. *)

val say : string -> unit
(** Prints one line to experiment output. *)

val heading : string -> unit
(** Prints a boxed section title. *)

val subheading : string -> unit

val series_table :
  bucket_s:float -> ?every:int -> (string * float array) list -> unit
(** Prints a time column plus one column per named series, sampling every
    [every]-th bucket (default 1). Values rendered with 3 decimals. *)

val cdf_table : (string * Xmp_stats.Distribution.t) list -> unit
(** Empirical CDFs side by side: for each cumulative probability (the
    deciles plus 0.05, 0.95 and 0.99), the value of each named
    distribution. *)

val five_number_table :
  value_header:string -> (string * Xmp_stats.Distribution.t) list -> unit
(** One row per name: min / p10 / p50 / p90 / max and mean — the paper's
    vertical-bar figures as text. *)
