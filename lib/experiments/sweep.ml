module Pool = Ttsv_parallel.Pool
module Json = Ttsv_obs.Json

let pool_of = function Some p -> p | None -> Pool.seq

(* One span per experiment point, on whichever domain evaluates it, so a
   full sweep produces a browsable trace.  The attribute list is only
   built when observability is on. *)
let point i g =
  if Ttsv_obs.Flags.enabled () then
    Ttsv_obs.Span.with_ ~name:"sweep.point" ~attrs:[ ("i", string_of_int i) ] g
  else g ()

type 'b stage = {
  cp : Checkpoint.t;
  stage : string;
  encode : 'b -> Json.t;
  decode : Json.t -> 'b option;
}

let stage cp ~name ~encode ~decode = { cp; stage = name; encode; decode }

let float_stage cp name =
  stage cp ~name ~encode:(fun y -> Json.Float y) ~decode:Json.to_float_opt

let map_array ?pool ?checkpoint f xs =
  let eval i =
    match checkpoint with
    | None -> point i (fun () -> f xs.(i))
    | Some st -> (
      (* a recorded point short-circuits the evaluation entirely; a new
         one is made durable the moment it completes, from whichever
         domain computed it *)
      match Option.bind (Checkpoint.find st.cp ~stage:st.stage i) st.decode with
      | Some y -> y
      | None ->
        let y = point i (fun () -> f xs.(i)) in
        Checkpoint.record st.cp ~stage:st.stage i (st.encode y);
        y)
  in
  Pool.map_array (pool_of pool) eval (Array.init (Array.length xs) Fun.id)

let map ?pool ?checkpoint f xs = map_array ?pool ?checkpoint f (Array.of_list xs)
