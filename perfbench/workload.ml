(* What every workload hands the runner once set up. *)

type session = {
  run_epoch : Stats.acc -> Layers.t -> int -> unit;
      (** one fixed, seed-determined epoch of timed operations, followed
          by its untimed correctness checks *)
  finish : Stats.acc -> Stats.metrics -> unit;
      (** the workload's behaviour and simulation metrics (code_insts,
          sim_* ) *)
  fill_layers : Layers.t -> unit;
      (** per-layer values the workload measures outside {!Layers}'
          per-epoch sums (the serve split) *)
  peak_rss_mb : unit -> float;
  close : unit -> unit;  (** stop every process the session started *)
}
