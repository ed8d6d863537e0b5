module Iterative = Ttsv_numerics.Iterative

type rung = Cg_mg | Cg_ic0 | Cg | Direct

type outcome =
  | Success
  | Iterative_failure of Iterative.status
  | Singular
  | Residual_too_large of float
  | Skipped of string

type attempt = {
  rung : rung;
  outcome : outcome;
  iterations : int;
  residual : float;
  wall_time : float;
  conv : Ttsv_obs.History.snapshot option;
}

type t = {
  attempts : attempt list;
  solved_by : rung option;
  iterations : int;
  residual : float;
  trace : float array;
  conv : Ttsv_obs.History.snapshot option;
  wall_time : float;
}

let empty =
  {
    attempts = [];
    solved_by = None;
    iterations = 0;
    residual = Float.nan;
    trace = [||];
    conv = None;
    wall_time = 0.;
  }

let rung_name = function
  | Cg_mg -> "cg-mg"
  | Cg_ic0 -> "cg-ic0"
  | Cg -> "cg"
  | Direct -> "direct"

let pp_outcome ppf = function
  | Success -> Format.fprintf ppf "ok"
  | Iterative_failure s -> Format.fprintf ppf "failed: %a" Iterative.pp_status s
  | Singular -> Format.fprintf ppf "failed: singular factorization"
  | Residual_too_large r -> Format.fprintf ppf "failed: residual %.3g too large" r
  | Skipped why -> Format.fprintf ppf "skipped: %s" why

let pp_attempt ppf a =
  Format.fprintf ppf "%-8s %a" (rung_name a.rung) pp_outcome a.outcome;
  match a.outcome with
  | Skipped _ -> ()
  | _ ->
    Format.fprintf ppf " — %d iterations, residual %.3g, %.2f ms" a.iterations a.residual
      (1000. *. a.wall_time)

let default_trace_cap = 32

(* Cap the residual history to its first [max_trace] entries (the final
   residual is already carried by [residual], so the tail is redundant)
   and say so explicitly — a 40k-iteration CG run must not silently dump
   40k numbers into a report or a JSON payload. *)
let capped_trace max_trace trace =
  let n = Array.length trace in
  if max_trace < 0 then invalid_arg "Diagnostics: max_trace must be >= 0";
  if n <= max_trace then (trace, false) else (Array.sub trace 0 max_trace, true)

let pp_trace ?(max_trace = default_trace_cap) ppf d =
  let shown, truncated = capped_trace max_trace d.trace in
  Format.fprintf ppf "@[<hov 2>trace:";
  Array.iter (fun r -> Format.fprintf ppf "@ %.3g" r) shown;
  if truncated then
    Format.fprintf ppf "@ ... (truncated, showing %d of %d)" (Array.length shown)
      (Array.length d.trace);
  Format.fprintf ppf "@]"

let pp ppf d =
  Format.fprintf ppf "@[<v>";
  List.iter (fun a -> Format.fprintf ppf "%a@," pp_attempt a) d.attempts;
  (match d.solved_by with
  | Some r -> Format.fprintf ppf "solved by %s" (rung_name r)
  | None -> Format.fprintf ppf "unsolved");
  Format.fprintf ppf ": %d total iterations, residual %.3g, %.2f ms" d.iterations d.residual
    (1000. *. d.wall_time);
  if Array.length d.trace > 0 then Format.fprintf ppf "@,%a" (pp_trace ?max_trace:None) d;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ JSON *)

module Json = Ttsv_obs.Json

let outcome_to_json = function
  | Success -> Json.Obj [ ("status", Json.String "ok") ]
  | Iterative_failure s ->
    Json.Obj
      [
        ("status", Json.String "failed");
        ("why", Json.String (Format.asprintf "%a" Iterative.pp_status s));
      ]
  | Singular ->
    Json.Obj [ ("status", Json.String "failed"); ("why", Json.String "singular factorization") ]
  | Residual_too_large r ->
    Json.Obj
      [
        ("status", Json.String "failed");
        ("why", Json.String "residual too large");
        ("residual", Json.Float r);
      ]
  | Skipped why -> Json.Obj [ ("status", Json.String "skipped"); ("why", Json.String why) ]

let attempt_to_json a =
  Json.Obj
    [
      ("rung", Json.String (rung_name a.rung));
      ("outcome", outcome_to_json a.outcome);
      ("iterations", Json.Int a.iterations);
      ("residual", Json.Float a.residual);
      ("wall_seconds", Json.Float a.wall_time);
      ( "conv",
        match a.conv with
        | Some s -> Ttsv_obs.History.snapshot_to_json s
        | None -> Json.Null );
    ]

let to_json ?(max_trace = default_trace_cap) d =
  let shown, truncated = capped_trace max_trace d.trace in
  Json.Obj
    [
      ("attempts", Json.List (List.map attempt_to_json d.attempts));
      ( "solved_by",
        match d.solved_by with Some r -> Json.String (rung_name r) | None -> Json.Null );
      ("iterations", Json.Int d.iterations);
      ("residual", Json.Float d.residual);
      ("wall_seconds", Json.Float d.wall_time);
      ("trace", Json.List (Array.to_list (Array.map (fun r -> Json.Float r) shown)));
      ("trace_len", Json.Int (Array.length d.trace));
      ("truncated", Json.Bool truncated);
      ( "conv",
        match d.conv with
        | Some s -> Ttsv_obs.History.snapshot_to_json s
        | None -> Json.Null );
    ]
